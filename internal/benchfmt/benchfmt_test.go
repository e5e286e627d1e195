package benchfmt

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestWriteEnvelope(t *testing.T) {
	type rec struct {
		Lock    string  `json:"lock"`
		Threads int     `json:"threads"`
		Ops     float64 `json:"ops_per_sec"`
	}
	var buf bytes.Buffer
	if err := Write(&buf, []rec{{"mcs", 4, 1000.5}, {"c-bo-mcs", 8, 2000}}); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `[
  {
    "lock": "mcs",
    "threads": 4,
    "ops_per_sec": 1000.5
  },
  {
    "lock": "c-bo-mcs",
    "threads": 8,
    "ops_per_sec": 2000
  }
]
`
	if got != want {
		t.Fatalf("envelope drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !strings.HasSuffix(got, "\n") {
		t.Fatal("missing trailing newline")
	}
}

func TestWriteEmptySlice(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []struct{}{}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Fatalf("empty slice encoded as %q, want %q", buf.String(), "[]\n")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWritePropagatesErrors(t *testing.T) {
	if err := Write(failWriter{}, []int{1}); err == nil {
		t.Fatal("writer error swallowed")
	}
}
