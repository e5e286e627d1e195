package spin

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The lock and store stack reaches the Go scheduler only through this
// package, so a scheduler that replaces spin's seams (yield, Parker,
// Mutex, CPUs, Now) controls every wait in it. The rules below check
// that syntactically over the stack's non-test sources.

// seamStack lists the stack's packages, relative to internal/.
var seamStack = []string{"locks", "core", "numa", "cachesim", "kvstore", "alloc"}

// seamLoopChecked lists the packages whose spin loops are checked too:
// every for loop that reads an atomic must call into spin.
var seamLoopChecked = map[string]bool{"locks": true, "core": true}

// seamLoopExempt names the functions, as Recv.Name, whose atomic-reading
// loops need no spin call, and why.
var seamLoopExempt = map[string]string{
	"CNA.findLocal": "walks the linked queue to its end; it never waits for a store",
}

func TestSeam(t *testing.T) {
	for _, pkg := range seamStack {
		dir := filepath.Join("..", pkg)
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no Go files in %s (%v)", dir, err)
		}
		files := map[string]string{}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files[path] = string(src)
		}
		for _, v := range seamViolations(t, files, seamLoopChecked[pkg]) {
			t.Error(v)
		}
	}
}

func TestSeamRejectsPlanted(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      string // in the violation; "" when the source is clean
	}{
		{"sync.Mutex field", `package p
import "sync"
type T struct{ mu sync.Mutex }`, `imports "sync"`},
		{"Gosched call", `package p
import "runtime"
func f() { runtime.Gosched() }`, `imports "runtime"`},
		{"channel receive", `package p
func f(ch chan int) int { return <-ch }`, "receives from a channel"},
		{"atomic poll without spin", `package p
import "sync/atomic"
func f(x *atomic.Bool) {
	for !x.Load() {
	}
}`, "never calls into spin"},
		{"clock read", `package p
import "time"
func f() time.Time { return time.Now() }`, "uses time.Now"},
		{"goroutine", `package p
func f() { go f() }`, "starts a goroutine"},
		{"spin calls", `package p
import (
	"sync/atomic"
	"time"

	"repro/internal/spin"
)
type node struct{ parker spin.Parker }
func f(x *atomic.Bool, n *node, patience time.Duration) {
	for i := 0; !x.Load(); i++ {
		spin.Poll(i)
	}
	b := spin.NewBackoff(spin.PolicyExponential, 1, 8, 1)
	for !x.CompareAndSwap(false, true) {
		b.Wait()
	}
	for x.Swap(false) {
		n.parker.Wait(x.Load)
	}
}`, ""},
	} {
		v := strings.Join(seamViolations(t, map[string]string{"planted.go": tc.src}, true), "\n")
		if tc.want == "" && v != "" || !strings.Contains(v, tc.want) {
			t.Errorf("%s: violations %q, want one containing %q", tc.name, v, tc.want)
		}
	}
}

// seamViolations checks one package's sources (file name to source)
// and returns one message per broken rule.
func seamViolations(t *testing.T, files map[string]string, loops bool) []string {
	t.Helper()
	fset := token.NewFileSet()
	var parsed []*ast.File
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, f)
	}
	spinVals := spinValueNames(parsed)
	var out []string
	bad := func(pos token.Pos, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...)))
	}
	for _, f := range parsed {
		timeName := importName(f, "time")
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "runtime" || path == "sync" {
				bad(imp.Pos(), "imports %q; block, yield and count CPUs through spin", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if isPkg(n.X, timeName) && n.Sel.Name != "Duration" {
					bad(n.Pos(), "uses time.%s; only the type time.Duration is allowed (clock: spin.Now)", n.Sel.Name)
				}
			case *ast.GoStmt:
				bad(n.Pos(), "starts a goroutine")
			case *ast.SelectStmt:
				bad(n.Pos(), "selects on channels")
			case *ast.SendStmt:
				bad(n.Pos(), "sends on a channel")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					bad(n.Pos(), "receives from a channel")
				}
			case *ast.ChanType:
				bad(n.Pos(), "declares a channel") // ranging over one would receive
			}
			return true
		})
		if !loops {
			continue
		}
		spinName := importName(f, "repro/internal/spin")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || seamLoopExempt[funcName(fd)] != "" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				loop, ok := n.(*ast.ForStmt)
				if ok && readsAtomic(loop.Cond, loop.Post, loop.Body) && !callsSpin(loop, spinName, spinVals) {
					bad(loop.Pos(), "for loop in %s reads an atomic but never calls into spin", funcName(fd))
				}
				return true
			})
		}
	}
	return out
}

// importName returns the name a file refers to an import path by, or
// "" when it does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// isPkg reports whether x names the imported package pkg (and not a
// local that shadows it).
func isPkg(x ast.Expr, pkg string) bool {
	id, ok := x.(*ast.Ident)
	return ok && pkg != "" && id.Name == pkg && id.Obj == nil
}

// funcName renders a declaration as Recv.Name or Name.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// anyCall reports whether any of nodes (nil ones skipped) calls a
// selector x.f for which match holds.
func anyCall(match func(*ast.SelectorExpr) bool, nodes ...ast.Node) bool {
	found := false
	for _, n := range nodes {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && match(sel) {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// readsAtomic reports whether any of nodes calls an atomic read: a
// Load, CompareAndSwap or Swap method, or sync/atomic's functions of
// those names.
func readsAtomic(nodes ...ast.Node) bool {
	return anyCall(func(sel *ast.SelectorExpr) bool {
		for _, op := range []string{"Load", "CompareAndSwap", "Swap"} {
			if sel.Sel.Name == op || isPkg(sel.X, "atomic") && strings.HasPrefix(sel.Sel.Name, op) {
				return true
			}
		}
		return false
	}, nodes...)
}

// callsSpin reports whether n calls a spin function, or Wait on a
// value spinValueNames found to be a spin.Backoff or spin.Parker.
func callsSpin(n ast.Node, spinName string, spinVals map[string]bool) bool {
	return anyCall(func(sel *ast.SelectorExpr) bool {
		return isPkg(sel.X, spinName) || sel.Sel.Name == "Wait" && spinVals[lastName(sel.X)]
	}, n)
}

// lastName is the name an expression ends in: b for b, n.parker for
// n.parker and p for l.parkers[i].p.
func lastName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.SelectorExpr:
			return e.Sel.Name
		case *ast.IndexExpr:
			x = e.X
		default:
			return ""
		}
	}
}

// spinValueNames collects the names of a package's fields of type
// spin.Backoff or spin.Parker and of its variables defined from
// spin.NewBackoff or spin.MakeParker. It is syntactic, so it knows a
// value by name only; a spin value declared any other way is not
// recognised, and a loop waiting on it is reported.
func spinValueNames(files []*ast.File) map[string]bool {
	names := map[string]bool{}
	for _, f := range files {
		spinName := importName(f, "repro/internal/spin")
		isSpin := func(x ast.Expr, a, b string) bool {
			sel, ok := x.(*ast.SelectorExpr)
			return ok && isPkg(sel.X, spinName) && (sel.Sel.Name == a || sel.Sel.Name == b)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if isSpin(n.Type, "Backoff", "Parker") {
					for _, id := range n.Names {
						names[id.Name] = true
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					id, isID := n.Lhs[i].(*ast.Ident)
					if ok && isID && isSpin(call.Fun, "NewBackoff", "MakeParker") {
						names[id.Name] = true
					}
				}
			}
			return true
		})
	}
	return names
}
