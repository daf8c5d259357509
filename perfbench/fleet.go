package main

import (
	"fmt"
	"sort"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/metrics"
	"hypertp/internal/obs"
	"hypertp/internal/orchestrator"
	"hypertp/internal/reactive"
	"hypertp/internal/report"
	"hypertp/internal/sched"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
	"hypertp/internal/vulndb"
)

// fleetCVEs alternate between a Xen-only and a KVM-only critical flaw,
// so each incident moves the affected part of the fleet to the other
// kind.
var fleetCVEs = [2]string{"CVE-2016-6258", "CVE-2017-12188"}

// fleetLimits are the concurrent-response limits of the fleet scheduler.
var fleetLimits = sched.Limits{MaxKexecs: 8, LinkStreams: 8}

// fleetEpisode is the number of incidents a fleet serves before the
// benchmark rebuilds it from the same plan. Nova packs the fleet into
// 120 full compatible hosts, 40 full incompatible ones and 40 empty
// spares, so the first response evacuates 400 VMs into exactly 400 free
// slots, and the second (after one storm) needs at most that. The
// planner spreads evacuees over the freest hosts, though, so from the
// third response on the free slots are too fragmented to take whole
// hosts' worth of VMs and the response degrades to quarantine (seen at
// the third to eleventh incident on seeds 1-8). The rebuild is untimed
// and framed by forced GCs.
const fleetEpisode = 2

// fleetBed is the fleet-cve testbed: 200 hosts and 1600 VMs under Nova.
// One incident is a CVE response followed by a crash storm on a seeded
// eighth of the hosts and the fleet-wide emergency recovery.
type fleetBed struct {
	p       *plan
	clock   *simtime.Clock
	nova    *orchestrator.Nova
	db      *vulndb.Database
	opts    core.Options
	vmIndex map[string]int
	rec     *obs.Recorder

	upgraded, evacuated, quarantined float64
	pramBytes, uisrBytes, wiped      float64
	detectMS                         []float64
}

func buildFleet(p *plan, m *meter) (testbed, error) {
	b := &fleetBed{p: p, db: vulndb.Load(), opts: core.DefaultOptions(), vmIndex: map[string]int{}}
	if err := b.build(m); err != nil {
		return nil, err
	}
	return b, nil
}

// build boots a fresh fleet from the plan.
func (b *fleetBed) build(m *meter) error {
	p := b.p
	b.clock = simtime.NewClock()
	fabric := simnet.NewLink(b.clock, "fabric", simnet.Gbps10, 100*time.Microsecond)
	b.nova = orchestrator.NewNova(b.clock, fabric)
	for _, hs := range p.Hosts {
		prof := hw.M1()
		prof.Name = hs.Name
		prof.RAMBytes = p.HostRAM
		prof.Threads = p.HostThreads
		var mach *hw.Machine
		m.timed("hw.new_machine", func() error { mach = hw.NewMachine(b.clock, prof); return nil })
		if err := m.timed("boot", func() error {
			d, err := orchestrator.NewLibvirtDriver(b.clock, mach, hv.KindXen)
			if err != nil {
				return err
			}
			return b.nova.AddNode(hs.Name, d)
		}); err != nil {
			return err
		}
	}
	for i, vs := range p.VMs {
		b.vmIndex[vs.Name] = i
		if err := m.timed("orchestrator.boot_vm", func() error {
			_, err := b.nova.BootVM(vs.config())
			return err
		}); err != nil {
			return err
		}
	}
	probes := reactive.DefaultProbeConfig()
	probes.Seed = p.ProbeSeed
	b.nova.SetDetector(reactive.NewDetector(probes))
	limits := fleetLimits
	b.nova.SetFleetLimits(&limits)
	if b.rec != nil {
		b.nova.SetRecorder(b.rec)
	}
	return nil
}

func (b *fleetBed) clockOf() *simtime.Clock { return b.clock }

func (b *fleetBed) attach(rec *obs.Recorder) {
	b.rec = rec
	b.nova.SetRecorder(rec)
}

func (b *fleetBed) prepare(*meter) error { return nil }

// allVMs lists every VM of the fleet in node order.
func (b *fleetBed) allVMs() []*hv.VM {
	var out []*hv.VM
	for _, name := range b.nova.Nodes() {
		node, _ := b.nova.Node(name)
		out = append(out, node.Driver.VMs()...)
	}
	return out
}

// op runs incident i: a CVE response, then a crash storm and its
// recovery.
func (b *fleetBed) op(i int, m *meter, sim *simLog) error {
	if i > 0 && i%fleetEpisode == 0 {
		if err := m.untimed("fleet.rebuild", func() error {
			// Free the old fleet before building the new one, so the
			// heap never holds two, and collect after the build, so the
			// next trigger is set from the new fleet's live heap.
			b.nova, b.clock = nil, nil
			m.gc.collect()
			if err := b.build(newMeter()); err != nil {
				return err
			}
			m.gc.collect()
			return nil
		}); err != nil {
			return err
		}
	}
	if err := m.untimed("guest.write", func() error {
		for _, vm := range b.allVMs() {
			ws := b.p.writeFor(i, b.vmIndex[vm.Config.Name])
			if err := vm.Guest.WriteWorkingSet(hw.GFN(ws.start), ws.pages); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	cve := fleetCVEs[i%2]
	vrec, _ := b.db.Lookup(cve)
	var resp *orchestrator.FleetResponse
	if err := m.timed("orchestrator.respond", func() (err error) {
		resp, err = b.nova.RespondToCVE(b.db, cve, []string{"xen", "kvm"}, b.opts)
		return err
	}); err != nil {
		return fmt.Errorf("respond to %s: %w", cve, err)
	}
	if err := b.checkResponse(resp, vrec); err != nil {
		return fmt.Errorf("respond to %s: %w", cve, err)
	}
	sim.line("op %d %s target=%v elapsed=%d upgraded=%d skipped=%d quarantined=%d",
		i, cve, resp.Target, resp.Elapsed, len(resp.UpgradedNodes), len(resp.SkippedNodes), len(resp.QuarantinedNodes))
	sim.advance(resp.Elapsed)
	b.upgraded += float64(len(resp.UpgradedNodes))
	b.quarantined += float64(len(resp.QuarantinedNodes))
	for _, rec := range resp.Records {
		b.evacuated += float64(len(rec.EvacuatedVMs))
		b.noteReport(sim, rec)
	}

	// The crash storm: injecting the fail-stops is the workload's doing,
	// recovering from them is the system's.
	var crashed []string
	for _, h := range b.p.crashSet(i) {
		name := b.p.Hosts[h].Name
		ev, err := b.nova.CrashHost(name, "perfbench storm")
		if err != nil {
			return fmt.Errorf("crash %s: %w", name, err)
		}
		b.detectMS = append(b.detectMS, ev.Latency().Seconds()*1e3)
		crashed = append(crashed, name)
	}
	var storm *orchestrator.StormResponse
	if err := m.timed("orchestrator.recover_fleet", func() (err error) {
		storm, err = b.nova.RecoverFleet(b.opts)
		return err
	}); err != nil {
		return fmt.Errorf("recover storm: %w", err)
	}
	if storm.Outcome != report.OutcomeCompleted {
		return fmt.Errorf("storm outcome %q (frozen %v, lost %v)", storm.Outcome, storm.FrozenNodes, storm.LostNodes)
	}
	recovered := append([]string(nil), storm.RecoveredNodes...)
	sort.Strings(recovered)
	if fmt.Sprint(recovered) != fmt.Sprint(crashed) || len(b.nova.Downed()) != 0 {
		return fmt.Errorf("storm recovered %v of crashed %v; still down %v", storm.RecoveredNodes, crashed, b.nova.Downed())
	}
	if err := b.checkVMs(m); err != nil {
		return err
	}
	sim.line("storm %d elapsed=%d recovered=%v", i, storm.Elapsed, storm.RecoveredNodes)
	sim.advance(storm.Elapsed)
	for _, rec := range storm.Records {
		b.noteReport(sim, rec)
	}
	return nil
}

func (b *fleetBed) noteReport(sim *simLog, rec *orchestrator.UpgradeRecord) {
	sim.line("  %s -> %v elapsed=%d evacuated=%v", rec.Node, rec.Target, rec.Elapsed, rec.EvacuatedVMs)
	if rec.Report == nil {
		return
	}
	b.pramBytes += float64(rec.Report.PRAMMetadataBytes)
	b.uisrBytes += float64(rec.Report.UISRBytes)
	b.wiped += float64(rec.Report.WipedFrames)
	for range rec.Report.VMs {
		sim.downtime(rec.Report.Downtime)
	}
}

// checkResponse holds a response to the CVE's own definition of done:
// every node that is neither quarantined nor downed runs an unaffected
// hypervisor, and upgraded, skipped and quarantined nodes cover the
// fleet exactly once. Quarantine is how the orchestrator answers a host
// it cannot upgrade or evacuate, so a response that quarantined nodes
// ends degraded and is accepted; any other outcome fails. Nodes
// quarantined by an earlier response are left out of this one and
// count as covered.
func (b *fleetBed) checkResponse(resp *orchestrator.FleetResponse, vrec *vulndb.Record) error {
	want := report.OutcomeCompleted
	if len(resp.QuarantinedNodes) > 0 {
		want = report.OutcomeDegraded
	}
	if resp.Outcome != want {
		return fmt.Errorf("outcome %q, want %q (quarantined %v, %d VMs stranded)",
			resp.Outcome, want, resp.QuarantinedNodes, len(resp.StrandedVMs))
	}
	seen := map[string]int{}
	for _, group := range [][]string{resp.UpgradedNodes, resp.SkippedNodes, resp.QuarantinedNodes} {
		for _, name := range group {
			seen[name]++
		}
	}
	for _, name := range b.nova.Nodes() {
		quarantined := b.nova.Quarantined(name)
		if quarantined && seen[name] == 0 {
			seen[name] = 1
		}
		if seen[name] != 1 {
			return fmt.Errorf("node %s appears %d times among upgraded, skipped and quarantined", name, seen[name])
		}
		node, _ := b.nova.Node(name)
		if quarantined || b.nova.HostDowned(name) {
			continue
		}
		if kind := node.Driver.HypervisorKind(); vrec.Affected(kind.String()) {
			return fmt.Errorf("node %s still runs affected %v", name, kind)
		}
	}
	if len(seen) != len(b.nova.Nodes()) {
		return fmt.Errorf("response names %d nodes, fleet has %d", len(seen), len(b.nova.Nodes()))
	}
	return nil
}

// checkVMs verifies every guest and that no VM was lost or duplicated.
func (b *fleetBed) checkVMs(m *meter) error {
	vms := b.allVMs()
	if len(vms) != len(b.p.VMs) || len(b.nova.Records()) != len(b.p.VMs) {
		return fmt.Errorf("fleet runs %d VMs (%d records), want %d", len(vms), len(b.nova.Records()), len(b.p.VMs))
	}
	return verifyGuests(m, vms)
}

func (b *fleetBed) checksums(sim *simLog) error {
	names := b.nova.Nodes()
	sort.Strings(names)
	for _, name := range names {
		node, _ := b.nova.Node(name)
		if err := checksumVMs(sim, name, node.Driver.HypervisorKind(), node.Driver.VMs()); err != nil {
			return err
		}
	}
	return nil
}

func (b *fleetBed) layers(out map[string]float64, ops int) {
	n := float64(ops)
	out["orchestrator.upgraded_hosts"] = b.upgraded / n
	out["orchestrator.evacuated_vms"] = b.evacuated / n
	out["orchestrator.quarantined"] = b.quarantined / n
	out["pram.metadata_kb_per_op"] = b.pramBytes / 1024 / n
	out["uisr.kb_per_op"] = b.uisrBytes / 1024 / n
	out["kexec.wiped_frames_per_op"] = b.wiped / n
	out["reactive.detect_ms_p50"] = metrics.Percentile(b.detectMS, 50)
}
