package main

import (
	"fmt"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/migration"
	"hypertp/internal/obs"
	"hypertp/internal/report"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
)

// migrateBed is the migrate-dirty testbed: a Xen host and a KVM host on
// a 10 Gbps link, and four large guests migrated one at a time between
// them with MigrationTP. Guest activity during pre-copy comes from each
// VM's DirtyRatePagesPerSec; no workload driver runs on the clock, since
// MigrationTP runs the clock to quiescence and a self-rescheduling
// driver would never let it return.
type migrateBed struct {
	p     *plan
	clock *simtime.Clock
	link  *simnet.Link
	hyps  [2]hv.Hypervisor
	recv  [2]*migration.Receiver
	rec   *obs.Recorder
	// where and ids locate VM v: host index and VM id there.
	where []int
	ids   []hv.VMID

	rounds, bytesSent, throttle float64
}

func buildMigrate(p *plan, m *meter) (testbed, error) {
	b := &migrateBed{p: p, clock: simtime.NewClock()}
	kinds := [2]hv.Kind{hv.KindXen, hv.KindKVM}
	for h, hs := range p.Hosts {
		prof := hw.M1()
		prof.Name = hs.Name
		var mach *hw.Machine
		m.timed("hw.new_machine", func() error { mach = hw.NewMachine(b.clock, prof); return nil })
		if err := m.timed("boot", func() (err error) {
			b.hyps[h], err = core.NewEngine(b.clock, mach).BootHypervisor(kinds[h])
			return err
		}); err != nil {
			return nil, err
		}
		b.recv[h] = migration.NewReceiver(b.clock, b.hyps[h], p.Seed+uint64(h))
	}
	b.link = simnet.NewLink(b.clock, "pair", simnet.Gbps10, 100*time.Microsecond)
	for _, vs := range p.VMs {
		if err := m.timed("spawn", func() error {
			vm, err := b.hyps[0].CreateVM(vs.config())
			if err != nil {
				return err
			}
			b.where = append(b.where, 0)
			b.ids = append(b.ids, vm.ID)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *migrateBed) clockOf() *simtime.Clock { return b.clock }

func (b *migrateBed) attach(rec *obs.Recorder) {
	b.rec = rec
	b.link.SetRecorder(rec)
}

// prepare writes each guest's seeded working set once, before the
// first operation: the guests are large and mostly untouched.
func (b *migrateBed) prepare(m *meter) error {
	return m.untimed("guest.write", func() error {
		for v, vs := range b.p.VMs {
			vm, _ := b.hyps[b.where[v]].LookupVM(b.ids[v])
			ws := b.p.writeFor(0, v)
			if err := vm.Guest.WriteWorkingSet(hw.GFN(ws.start), vs.WorkingPages); err != nil {
				return err
			}
		}
		return nil
	})
}

// op migrates VM i mod 4 to the other host.
func (b *migrateBed) op(i int, m *meter, sim *simLog) error {
	v := i % len(b.p.VMs)
	from, to := b.where[v], 1-b.where[v]
	name := b.p.VMs[v].Name
	t0 := b.clock.Now()
	var rep *migration.Report
	err := m.timed("core.migrationtp", func() (err error) {
		rep, err = core.MigrationTP(b.clock, core.MigrationTPParams{
			Link: b.link, Source: b.hyps[from], Dest: b.recv[to], VMID: b.ids[v],
			DirtyRatePagesPerSec: b.p.VMs[v].DirtyRate, Obs: b.rec,
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("%s %v->%v: %w", name, b.hyps[from].Kind(), b.hyps[to].Kind(), err)
	}

	// Output checks.
	if rep.Outcome != report.OutcomeCompleted {
		return fmt.Errorf("%s: report outcome %q, want %q", name, rep.Outcome, report.OutcomeCompleted)
	}
	if !rep.Heterogeneous || rep.DestVM == nil || rep.DestVM.Config.Name != name {
		return fmt.Errorf("%s: report does not describe a %v->%v transplant of the VM", name, b.hyps[from].Kind(), b.hyps[to].Kind())
	}
	if _, ok := b.hyps[from].LookupVM(b.ids[v]); ok {
		return fmt.Errorf("%s still present on the source %v", name, b.hyps[from].Kind())
	}
	if vm, ok := b.hyps[to].LookupVM(rep.DestVM.ID); !ok || vm.Paused() {
		return fmt.Errorf("%s not running on the destination %v", name, b.hyps[to].Kind())
	}
	if got := len(b.hyps[0].VMs()) + len(b.hyps[1].VMs()); got != len(b.p.VMs) {
		return fmt.Errorf("%d VMs across both hosts, want %d", got, len(b.p.VMs))
	}
	b.where[v], b.ids[v] = to, rep.DestVM.ID
	if err := verifyGuests(m, []*hv.VM{rep.DestVM}); err != nil {
		return err
	}

	b.rounds += float64(rep.Rounds)
	b.bytesSent += float64(rep.BytesSent)
	b.throttle += float64(rep.ThrottleLevel)
	sim.line("op %d %s %v->%v id=%d total=%d downtime=%d rounds=%d bytes=%d throttle=%d",
		i, name, b.hyps[from].Kind(), b.hyps[to].Kind(), rep.DestVM.ID, rep.TotalTime, rep.Downtime,
		rep.Rounds, rep.BytesSent, rep.ThrottleLevel)
	sim.downtime(rep.Downtime)
	sim.advance(b.clock.Now() - t0)
	return nil
}

func (b *migrateBed) checksums(sim *simLog) error {
	for h, hyp := range b.hyps {
		if err := checksumVMs(sim, b.p.Hosts[h].Name, hyp.Kind(), hyp.VMs()); err != nil {
			return err
		}
	}
	return nil
}

func (b *migrateBed) layers(out map[string]float64, ops int) {
	out["migration.rounds_per_op"] = b.rounds / float64(ops)
	out["migration.mb_sent_per_op"] = b.bytesSent / 1e6 / float64(ops)
	out["migration.throttle_per_op"] = b.throttle / float64(ops)
}
