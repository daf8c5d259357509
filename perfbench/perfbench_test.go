package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestGenerateIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w.name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w.name, 7)
		c, _ := generate(w.name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans of seed 7 differ", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same plan", w.name)
		}
		for op := 0; op < 8; op++ {
			if a.writeFor(op, 3) != b.writeFor(op, 3) {
				t.Errorf("%s: write set of op %d differs between plans of one seed", w.name, op)
			}
		}
		if w.name == "fleet-cve" {
			if !reflect.DeepEqual(a.crashSet(5), b.crashSet(5)) {
				t.Error("crash set differs between plans of one seed")
			}
			if got := len(a.crashSet(5)); got != 25 {
				t.Errorf("storm crashes %d hosts, want 25", got)
			}
		}
	}
	if _, err := generate("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The sim_* metrics and the digest of the operation prefix depend on
// the seed alone: not on the run, the par width, or tracing.
func TestDigestRepeatsAcrossRunsWidthsAndTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's prefix four times")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var first *outcome
			for _, o := range []options{
				{par: 2}, {par: 2}, {par: 1}, {par: 2, trace: true},
			} {
				o.workload, o.seed, o.setupReps = w.name, 3, 1
				res, err := runBench(o, &bytes.Buffer{})
				if err != nil {
					t.Fatal(err)
				}
				if res.digest == "" || res.ops != w.minOps {
					t.Fatalf("%+v: %d ops, digest %q", o, res.ops, res.digest)
				}
				if first == nil {
					first = res
					continue
				}
				if res.digest != first.digest {
					t.Errorf("%+v: digest %s, first run %s", o, res.digest, first.digest)
				}
				if o.trace {
					continue
				}
				for _, m := range []string{"sim_downtime_ms_p50", "sim_elapsed_s"} {
					if res.metrics[m] != first.metrics[m] {
						t.Errorf("%+v: %s = %v, first run %v", o, m, res.metrics[m], first.metrics[m])
					}
				}
			}
		})
	}
}

// A short run of each workload, untraced and traced, through the
// command-line entry point: the last line is the result JSON with every
// metric of the catalogue, all finite and the untraced ones positive.
func TestSmokeRunEachWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errs bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "2", "--seconds", "0", "--trace", trace}, &out, &errs)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, trace, code, errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != w.minOps {
				t.Errorf("%s trace %s: correct %v attempted %d failed %d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := catalogue(trace == "1")
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
				if trace == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// A forced GC is charged to the pending operations in proportion to
// their allocation, and only once.
func TestCollectorChargesGCByAllocationShare(t *testing.T) {
	gc := &collector{}
	gc.collect()
	m := newMeter()
	m.gc = gc
	m.curAlloc = 100
	m.endOp()
	m.curAlloc = 300
	m.endOp()
	gc.allocAt -= 1000 // as if 1000 bytes were allocated since the last GC
	gc.collect()
	if !(m.ops[0] > 0) || math.Abs(m.ops[1]/m.ops[0]-3) > 1e-9 {
		t.Fatalf("charges %v, want positive and in ratio 1:3", m.ops)
	}
	if len(gc.pending) != 0 {
		t.Fatalf("%d operations still pending after a collection", len(gc.pending))
	}
	before := append([]float64(nil), m.ops...)
	gc.collect()
	if !reflect.DeepEqual(m.ops, before) {
		t.Fatalf("second collection charged again: %v -> %v", before, m.ops)
	}
}

func TestUnknownWorkloadFailsWithoutResult(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errs); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if strings.Contains(out.String(), `"correct":true`) {
		t.Fatal("unknown workload reported a correct result")
	}
}

// BENCHMARK.json must list exactly the metrics the program prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json", i, w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
