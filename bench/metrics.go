package main

// metric declares one reported number. BENCHMARK.json at the root of
// the repository lists the same names; a self-test keeps the two equal.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd are the numbers a user of the system would see that repeat
// well enough on this host to gate changes on. Every workload reports
// all three. The time of one call (p50_us, p99_us) was meant to be among
// them; its run-to-run spread is up to 27 % of the median here, beyond
// the largest bound the contract allows, so it is reported per layer
// instead (call.<workload>.p50_us, .p99_us), as the issue provides.
var endToEnd = []metric{
	{"ops_per_s", "1/s", "higher", 0.25},   // verified operations (critical sections, keys or requests) per second
	{"ok_share", "share", "higher", 0.001}, // verified ok operations / operations attempted
	{"setup_s", "s", "lower", 0.25},        // median of five constructions of the workload's stack
}

var allWorkloads = []*workload{lockHandoff, storeRead, storeWrite, wirePipelined, wireRR}

func findWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// The memory-mode matrix ROADMAP 3(b) decides from.
var (
	valueModes = []string{"heap", "arena"}
	indexModes = []string{"pointer", "compact"}
)

// perLayer lists every per-layer metric, layer by layer, named after
// the modules.
func perLayer() []metric {
	var ms []metric
	add := func(name, unit, better string) { ms = append(ms, metric{name: name, unit: unit, better: better}) }

	// spin: the calibration on record; should move nothing now that
	// the simulated charges are off.
	add("spin.units_per_us", "units/us", "higher")
	add("spin.wait_1us_actual_ns", "ns", "lower")

	// locks/core -> lock-handoff ops_per_s and p50_us.
	for _, l := range baseLocks {
		for _, pl := range places {
			add("locks."+l.name+"."+pl.name+".ops_per_s", "1/s", "higher")
			add("locks."+l.name+"."+pl.name+".op_p50_ns", "ns", "lower")
			add("locks."+l.name+"."+pl.name+".op_p99_ns", "ns", "lower")
		}
		add("locks."+l.name+".cross.ops_per_migration", "count", "higher")
		add("locks."+l.name+".cross.fairness_pct", "%", "lower")
		add("locks."+l.name+".uncontended_ns", "ns", "lower")
	}
	// locks executors -> lock-handoff (exec cells), store-write (exec cell).
	for _, pl := range places {
		add("exec."+execName+"."+pl.name+".ops_per_s", "1/s", "higher")
		add("exec."+execName+"."+pl.name+".op_p50_ns", "ns", "lower")
		add("exec."+execName+"."+pl.name+".ops_per_acq", "count", "higher")
	}
	add("exec."+execName+".uncontended_ns", "ns", "lower")

	// kvstore -> store-read / store-write.
	for _, w := range []string{"read", "write"} {
		add("kvstore."+w+".call_ns_per_key", "ns", "lower")
		add("kvstore."+w+".lock_wait_ns_per_key", "ns", "lower")
		add("kvstore."+w+".cs_ns_per_key", "ns", "lower")
		add("kvstore."+w+".self_ns_per_key", "ns", "lower")
		add("kvstore."+w+".acq_per_key", "count", "lower")
		add("kvstore."+w+".allocs_per_key", "count", "lower")
	}
	for _, c := range readCells {
		add("kvstore.read."+c+".ops_per_s", "1/s", "higher")
	}
	for _, c := range writeCells {
		add("kvstore.write."+c+".ops_per_s", "1/s", "higher")
	}
	add("kvstore.write.gc_cycles", "count", "lower")
	add("kvstore.write.gc_pause_ms", "ms", "lower")
	add("kvstore.write.gc_cpu_share", "share", "lower")
	add("kvstore.write.evictions_per_key", "count", "lower")
	add("kvstore.write.hit_share", "share", "higher")
	add("kvstore.heap_bytes_per_key", "B", "lower")
	add("kvstore.get1_ns", "ns", "lower")
	add("kvstore.set1_ns", "ns", "lower")
	for _, vm := range valueModes {
		for _, im := range indexModes {
			add("kvstore."+vm+"-"+im+".read_ns_per_key", "ns", "lower")
			add("kvstore."+vm+"-"+im+".write_ns_per_key", "ns", "lower")
			add("kvstore."+vm+"-"+im+".gc_pause_ms", "ms", "lower")
		}
	}
	add("kvstore.sim_charge_share", "share", "lower")

	// alloc -> the arena matrix cells only.
	add("alloc.malloc_free_ns", "ns", "lower")

	// server (proto) -> wire-pipelined ops_per_s.
	add("server.parse_get_ns", "ns", "lower")
	add("server.parse_set_ns", "ns", "lower")
	add("server.hashkey_ns", "ns", "lower")

	// server (wire) -> wire-pipelined ops_per_s; wire-rr p50_us, p99_us.
	for _, m := range []string{"pipelined", "rr"} {
		add("server."+m+".serve_ns_per_op", "ns", "lower")
		add("server."+m+".store_ns_per_op", "ns", "lower")
		add("server."+m+".self_ns_per_op", "ns", "lower")
		add("server."+m+".net_ns_per_op", "ns", "lower")
		add("server."+m+".ops_per_flush", "count", "higher")
	}
	add("server.conn_setup_us", "us", "lower")
	add("server.populate.acked_sets_missing", "count", "lower")

	// The time of one call, and what the interposers cost.
	for _, w := range allWorkloads {
		add("call."+w.name+".p50_us", "us", "lower")
		add("call."+w.name+".p99_us", "us", "lower")
		add("trace."+w.name+".overhead_share", "share", "lower")
	}
	return ms
}
