// Command perfbench is the repository benchmark: it drives the
// simulator's own packages through one of three seeded workloads,
// checks every simulated output, and prints host-time and memory
// metrics (and, with -trace 1, per-layer metrics) ending in one JSON
// line. See README.md for why each workload exists and what it stresses.
//
//	go run . -workload inplace-churn -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"hypertp/internal/metrics"
	"hypertp/internal/obs"
	"hypertp/internal/par"
	"hypertp/internal/simtime"
)

// testbed is one workload's system under test, built from a plan.
type testbed interface {
	clockOf() *simtime.Clock
	// prepare does untimed one-off work after setup (guest writes).
	prepare(m *meter) error
	// attach points the testbed's layers at a recorder (nil detaches).
	attach(rec *obs.Recorder)
	// op runs operation i: untimed preparation, the timed system calls,
	// then the output checks. sim is nil past the fixed prefix.
	op(i int, m *meter, sim *simLog) error
	// checksums adds guest checksums and placements to the digest.
	checksums(sim *simLog) error
	// layers adds the report-derived per-layer figures over ops
	// operations.
	layers(out map[string]float64, ops int)
}

type workloadDef struct {
	name  string
	build func(*plan, *meter) (testbed, error)
	// minOps is the operation prefix every run completes, whatever its
	// time budget. The sim_* metrics and the digest cover exactly this
	// prefix, so they repeat for a seed however fast the host is.
	minOps int
	// traceBlock is the block length of a traced run. The first block
	// warms caches and is left out of the overhead comparison; after it
	// blocks alternate traced and untraced, so both halves see the same
	// mix of hosts, directions and emergency hops.
	traceBlock int
}

var workloads = []workloadDef{
	{name: "inplace-churn", build: buildInplace, minOps: 200, traceBlock: 20},
	{name: "migrate-dirty", build: buildMigrate, minOps: 200, traceBlock: 4},
	{name: "fleet-cve", build: buildFleet, minOps: 2 * fleetEpisode, traceBlock: fleetEpisode},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want inplace-churn, migrate-dirty or fleet-cve)", name)
}

// options are one run's settings. par (the par pool width) and
// setupReps default to the number of CPUs and to the setupReps constant;
// the tests set them to compare widths and to shorten runs.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	par       int
	setupReps int
}

// outcome is one run's result.
type outcome struct {
	ops     int
	digest  string
	metrics map[string]float64
}

// setupReps is how many times a run builds its testbed; setup_s is the
// median, and the last build is the one measured.
const setupReps = 7

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "inplace-churn, migrate-dirty or fleet-cve")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds (the operation prefix always completes)")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	res, err := runBench(o, stderr)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	if err != nil {
		// A wrong output or failed operation reports no numbers.
		fmt.Fprintf(stderr, "perfbench: FAIL workload %s seed %d: %v\n", o.workload, o.seed, err)
		line.Attempted, line.Failed = 1, 1
		if res != nil {
			line.Attempted = res.ops + 1
		}
	} else {
		line.Correct, line.Attempted = true, res.ops
		fmt.Fprintf(stdout, "workload %s seed %d trace %v par %d ops %d digest %s\n",
			o.workload, o.seed, o.trace, par.Workers(), res.ops, res.digest)
		for _, d := range catalogue(o.trace) {
			v := res.metrics[d.name]
			fmt.Fprintf(stdout, "  %-34s %14.4f %s\n", d.name, v, d.unit)
			line.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintln(stdout, string(b))
	if err != nil {
		return 1
	}
	return 0
}

func catalogue(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runBench builds the testbed, runs the operation loop and computes the
// metrics. On a failed check it returns the operations completed so far
// and an error naming the seed and the operation.
func runBench(o options, log io.Writer) (*outcome, error) {
	def, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	p, err := generate(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	width := o.par
	if width <= 0 {
		width = runtime.NumCPU()
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	par.SetWorkers(width)
	if o.setupReps < 1 {
		o.setupReps = setupReps
	}

	// Setup: build the testbed setupReps times, dropping each before the
	// next, and keep the last.
	var tb testbed
	var setupM *meter
	var setups []float64
	for r := 0; r < o.setupReps; r++ {
		tb = nil
		runtime.GC()
		setupM = newMeter()
		if tb, err = def.build(p, setupM); err != nil {
			return nil, fmt.Errorf("seed %d: setup: %w", o.seed, err)
		}
		var s time.Duration
		for _, a := range setupM.timedBy {
			s += a.total
		}
		setups = append(setups, s.Seconds())
	}
	gc := &collector{}
	gc.collect()
	liveHeap := float64(gc.base) / 1e6

	plain, traced, warm := newMeter(), newMeter(), newMeter()
	plain.gc, traced.gc, warm.gc = gc, gc, gc
	if err := tb.prepare(plain); err != nil {
		return nil, fmt.Errorf("seed %d: prepare: %w", o.seed, err)
	}
	tr := newTracer()
	sim := newSimLog()
	res := &outcome{metrics: map[string]float64{}}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < def.minOps || time.Since(start) < budget; i++ {
		m := plain
		var rec *obs.Recorder
		if o.trace {
			switch block := i / def.traceBlock; {
			case block == 0:
				m = warm
			case block%2 == 1:
				m, rec = traced, obs.NewRecorder(tb.clockOf())
				tb.attach(rec)
			}
		}
		s := sim
		if i >= def.minOps {
			s = nil
		}
		err := tb.op(i, m, s)
		if rec != nil {
			tb.attach(nil)
			tr.fold(rec)
		}
		if err != nil {
			return res, fmt.Errorf("seed %d, operation %d: %w", o.seed, i, err)
		}
		m.endOp()
		res.ops++
		gc.maybe()
		if i == def.minOps-1 {
			if err := tb.checksums(sim); err != nil {
				return res, fmt.Errorf("seed %d, operation %d: %w", o.seed, i, err)
			}
			res.digest = sim.digest()
		}
	}

	// Charge the last operations their share of the garbage they left.
	gc.collect()

	out := res.metrics
	if !o.trace {
		out["ops_per_s"] = float64(len(plain.ops)) / plain.timedSeconds()
		out["op_ms_p50"] = metrics.Percentile(plain.ops, 50)
		out["op_ms_p95"] = metrics.Percentile(plain.ops, 95)
		out["setup_s"] = metrics.Percentile(setups, 50)
		out["live_heap_mb"] = liveHeap
		out["alloc_mb_per_op"] = float64(plain.alloc) / 1e6 / float64(len(plain.ops))
		out["sim_downtime_ms_p50"] = metrics.Percentile(sim.downtimes, 50)
		out["sim_elapsed_s"] = sim.elapsed.Seconds()
		return res, nil
	}

	for _, d := range perLayer {
		out[d.name] = 0
	}
	for _, l := range []string{"core.inplace", "core.emergency", "core.migrationtp", "orchestrator.respond", "orchestrator.recover_fleet"} {
		out[l+"_ms"] = traced.timedBy[l].meanMS()
	}
	if a := setupM.timedBy["hw.new_machine"]; a != nil {
		out["hw.new_machine_ms"] = a.meanMS()
		out["hw.new_machine_mb"] = float64(a.alloc) / 1e6 / float64(a.n)
	}
	out["orchestrator.boot_vm_ms"] = setupM.timedBy["orchestrator.boot_vm"].meanMS()
	for _, l := range []string{"guest.write", "guest.verify"} {
		var total time.Duration
		for _, m := range []*meter{plain, traced, warm} {
			if a := m.aside[l]; a != nil {
				total += a.total
			}
		}
		out[l+"_ms"] = total.Seconds() * 1e3 / float64(res.ops)
	}
	tr.layers(out)
	tb.layers(out, res.ops)
	if err := probeLayers(p, out); err != nil {
		return res, fmt.Errorf("seed %d: probes: %w", o.seed, err)
	}
	if len(plain.ops) > 0 && len(traced.ops) > 0 {
		untracedRate := float64(len(plain.ops)) / plain.timedSeconds()
		tracedRate := float64(len(traced.ops)) / traced.timedSeconds()
		out["obs.trace_overhead_pct"] = (untracedRate - tracedRate) / untracedRate * 100
	}
	fmt.Fprintf(log, "perfbench: traced %d of %d operations\n", len(traced.ops), res.ops)
	return res, nil
}
