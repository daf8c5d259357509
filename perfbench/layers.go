package main

import (
	"time"

	"hypertp/internal/metrics"
	"hypertp/internal/obs"
	"hypertp/internal/trace"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Host time unless the
// name starts with sim_; the sim_* metrics cover the fixed operation
// prefix and repeat exactly for a seed.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p95", "ms"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
	{"sim_downtime_ms_p50", "ms"},
	{"sim_elapsed_s", "s"},
}

// phaseSteps are the Fig. 3 phases whose engine spans the traced run
// reads self time from.
var phaseSteps = []string{
	trace.StepPRAMBuild, trace.StepTranslate, trace.StepKexec, trace.StepBoot,
	trace.StepPRAMParse, trace.StepRestore, trace.StepResume, trace.StepCleanup,
}

// schedResources are the fleet scheduler's counted resources.
var schedResources = []string{"kexec", "stream"}

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a layer a workload bypasses reads 0 there.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"core.inplace_ms", "ms"},
		{"core.emergency_ms", "ms"},
		{"core.migrationtp_ms", "ms"},
	}
	for _, s := range phaseSteps {
		ms = append(ms, metricDef{"core.phase." + s + "_self_ms", "ms"})
	}
	ms = append(ms,
		metricDef{"pram.metadata_kb_per_op", "KiB"},
		metricDef{"uisr.kb_per_op", "KiB"},
		metricDef{"pram.build_ms", "ms"},
		metricDef{"pram.frame_ranges_ms", "ms"},
		metricDef{"pram.parse_ms", "ms"},
		metricDef{"hv.save_uisr_us.xen", "us"},
		metricDef{"hv.save_uisr_us.kvm", "us"},
		metricDef{"hv.restore_uisr_us.xen", "us"},
		metricDef{"hv.restore_uisr_us.kvm", "us"},
		metricDef{"uisr.encode_us", "us"},
		metricDef{"uisr.decode_us", "us"},
		metricDef{"tpcache.hit_ratio", "ratio"},
		metricDef{"tpcache.pram_replay_ratio", "ratio"},
		metricDef{"kexec.wiped_frames_per_op", "count"},
		metricDef{"hw.new_machine_ms", "ms"},
		metricDef{"hw.new_machine_mb", "MB"},
		metricDef{"hw.copy_contents_ms", "ms"},
		metricDef{"migration.rounds_per_op", "count"},
		metricDef{"migration.mb_sent_per_op", "MB"},
		metricDef{"migration.throttle_per_op", "count"},
		metricDef{"migration.round_self_ms", "ms"},
		metricDef{"simnet.mb_transferred", "MB"},
		metricDef{"simnet.aborts", "count"},
		metricDef{"orchestrator.respond_ms", "ms"},
		metricDef{"orchestrator.recover_fleet_ms", "ms"},
		metricDef{"orchestrator.boot_vm_ms", "ms"},
		metricDef{"orchestrator.upgraded_hosts", "count"},
		metricDef{"orchestrator.evacuated_vms", "count"},
		metricDef{"orchestrator.quarantined", "count"},
	)
	for _, r := range schedResources {
		ms = append(ms, metricDef{"sched.queue_delay_ms_p50." + r, "ms"})
	}
	return append(ms,
		metricDef{"reactive.detect_ms_p50", "ms"},
		metricDef{"guest.write_ms", "ms"},
		metricDef{"guest.verify_ms", "ms"},
		metricDef{"obs.trace_overhead_pct", "%"},
	)
}()

// tracer folds the span forests and registries of traced operations
// into per-layer figures. Each traced operation gets a fresh recorder,
// so the forest never outgrows one operation.
type tracer struct {
	ops      int
	self     map[string]time.Duration // wall self time per span name
	counters map[string]int64
	queueP50 map[string][]float64 // per-operation p50 per resource, ms
}

func newTracer() *tracer {
	return &tracer{self: map[string]time.Duration{}, counters: map[string]int64{}, queueP50: map[string][]float64{}}
}

// fold accumulates one traced operation's recorder. A span's self time
// is its wall duration minus its children's: the engine's phase spans
// run one after another, so the children's durations are the part of
// the parent they cover.
func (t *tracer) fold(rec *obs.Recorder) {
	t.ops++
	for _, root := range rec.Roots() {
		root.Walk(func(s *obs.Span, _ int) {
			self := s.WallDuration()
			for _, c := range s.Children() {
				self -= c.WallDuration()
			}
			if self > 0 {
				t.self[s.Name] += self
			}
		})
	}
	reg := rec.Metrics()
	for _, name := range []string{"simnet.bytes_moved", "simnet.aborts"} {
		t.counters[name] += reg.Counter(name, "").Value()
	}
	for _, r := range schedResources {
		if h := reg.Histogram("sched.queue_delay."+r, "ns", nil); h.Count() > 0 {
			t.queueP50[r] = append(t.queueP50[r], h.Summary().P50/1e6)
		}
	}
}

// selfMS is the mean wall self time per traced operation of spans named
// name, in ms.
func (t *tracer) selfMS(name string) float64 {
	if t.ops == 0 {
		return 0
	}
	return t.self[name].Seconds() * 1e3 / float64(t.ops)
}

func (t *tracer) layers(out map[string]float64) {
	for _, s := range phaseSteps {
		out["core.phase."+s+"_self_ms"] = t.selfMS(s)
	}
	out["migration.round_self_ms"] = t.selfMS("precopy-round")
	if t.ops > 0 {
		out["simnet.mb_transferred"] = float64(t.counters["simnet.bytes_moved"]) / 1e6 / float64(t.ops)
		out["simnet.aborts"] = float64(t.counters["simnet.aborts"]) / float64(t.ops)
	}
	for _, r := range schedResources {
		out["sched.queue_delay_ms_p50."+r] = metrics.Percentile(t.queueP50[r], 50)
	}
}
