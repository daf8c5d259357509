package main

import (
	"fmt"

	"hypertp/internal/core"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/orchestrator"
	"hypertp/internal/report"
	"hypertp/internal/simtime"
	"hypertp/internal/tpcache"
)

// inplaceBed is the inplace-churn testbed: four M1 hosts that are
// transplanted Xen⇄KVM in place over and over through the libvirt
// driver, sharing one transplant cache. Every fifth hop is a crash
// followed by emergency recovery instead of a planned transplant.
type inplaceBed struct {
	p     *plan
	clock *simtime.Clock
	hosts []*inplaceHost
	opts  core.Options
	cache *tpcache.Cache
	// vmIndex maps a VM name to its index in plan order, which keys the
	// VM's seeded write stream.
	vmIndex map[string]int

	pramBytes, uisrBytes, wiped float64
}

type inplaceHost struct {
	name string
	drv  *orchestrator.LibvirtDriver
	vms  int
}

func buildInplace(p *plan, m *meter) (testbed, error) {
	b := &inplaceBed{p: p, clock: simtime.NewClock(), cache: tpcache.New(), vmIndex: map[string]int{}}
	b.opts = core.DefaultOptions()
	b.opts.Cache = b.cache
	for h, hs := range p.Hosts {
		prof := hw.M1()
		prof.Name = hs.Name
		var mach *hw.Machine
		m.timed("hw.new_machine", func() error { mach = hw.NewMachine(b.clock, prof); return nil })
		// Alternate the starting kind so both directions run every cycle.
		kind := hv.KindXen
		if h%2 == 1 {
			kind = hv.KindKVM
		}
		var drv *orchestrator.LibvirtDriver
		if err := m.timed("boot", func() (err error) {
			drv, err = orchestrator.NewLibvirtDriver(b.clock, mach, kind)
			return err
		}); err != nil {
			return nil, err
		}
		for _, vs := range hs.VMs {
			b.vmIndex[vs.Name] = len(b.vmIndex)
			if err := m.timed("spawn", func() error {
				_, err := drv.Spawn(vs.config())
				return err
			}); err != nil {
				return nil, fmt.Errorf("%s: %w", hs.Name, err)
			}
		}
		b.hosts = append(b.hosts, &inplaceHost{name: hs.Name, drv: drv, vms: len(hs.VMs)})
	}
	return b, nil
}

func (v vmSpec) config() hv.Config {
	return hv.Config{
		Name: v.Name, VCPUs: v.VCPUs, MemBytes: v.MemBytes, HugePages: v.HugePages,
		Seed: v.Seed, InPlaceCompatible: v.InPlace,
	}
}

func (b *inplaceBed) clockOf() *simtime.Clock { return b.clock }

func (b *inplaceBed) prepare(*meter) error { return nil }

func (b *inplaceBed) attach(rec *obs.Recorder) {
	for _, h := range b.hosts {
		h.drv.SetRecorder(rec)
	}
}

// op hops host i mod 4 to the other kind.
func (b *inplaceBed) op(i int, m *meter, sim *simLog) error {
	h := b.hosts[i%len(b.hosts)]
	emergency := i%emergencyEvery == emergencyEvery-1
	if err := m.untimed("guest.write", func() error {
		for _, vm := range h.drv.VMs() {
			ws := b.p.writeFor(i, b.vmIndex[vm.Config.Name])
			if err := vm.Guest.WriteWorkingSet(hw.GFN(ws.start), ws.pages); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Planned and emergency hops alike go Xen⇄KVM.
	src := h.drv.HypervisorKind()
	target := orchestrator.EmergencyTarget(src)
	want := report.OutcomeCompleted
	t0 := b.clock.Now()
	var rep *core.InPlaceReport
	var err error
	if emergency {
		want = report.OutcomeRecovered
		if err := h.drv.CrashHost("perfbench storm"); err != nil {
			return err
		}
		err = m.timed("core.emergency", func() (err error) {
			rep, err = h.drv.EmergencyRecover(target, b.opts)
			return err
		})
	} else {
		err = m.timed("core.inplace", func() (err error) {
			rep, err = h.drv.HostLiveUpgrade(target, b.opts)
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("%s %v->%v: %w", h.name, src, target, err)
	}

	// Output checks.
	if rep.Outcome != want {
		return fmt.Errorf("%s: report outcome %q, want %q", h.name, rep.Outcome, want)
	}
	if got := h.drv.HypervisorKind(); got != target {
		return fmt.Errorf("%s runs %v after the hop, want %v", h.name, got, target)
	}
	if got := len(h.drv.VMs()); got != h.vms || len(rep.VMs) != h.vms {
		return fmt.Errorf("%s has %d VMs (report %d) after the hop, want %d", h.name, got, len(rep.VMs), h.vms)
	}
	if err := verifyGuests(m, h.drv.VMs()); err != nil {
		return fmt.Errorf("%s: %w", h.name, err)
	}
	if i+1 == emergencyEvery*len(b.hosts) && b.cache.Stats().HitRatio() <= 0 {
		return fmt.Errorf("transplant cache never hit after %d hops: %v", i+1, b.cache.Stats())
	}

	b.pramBytes += float64(rep.PRAMMetadataBytes)
	b.uisrBytes += float64(rep.UISRBytes)
	b.wiped += float64(rep.WipedFrames)
	sim.line("op %d %s %v->%v emergency=%v downtime=%d total=%d pram=%d translate=%d reboot=%d restore=%d meta=%d uisr=%d wiped=%d",
		i, h.name, src, target, emergency, rep.Downtime, rep.Total, rep.PRAM, rep.Translation,
		rep.Reboot, rep.Restoration, rep.PRAMMetadataBytes, rep.UISRBytes, rep.WipedFrames)
	for _, r := range rep.VMs {
		sim.line("  vm %s %d->%d", r.Name, r.OldID, r.NewID)
		sim.downtime(rep.Downtime)
	}
	sim.advance(b.clock.Now() - t0)
	return nil
}

// emergencyEvery makes every fifth hop a crash plus emergency recovery.
// The emergency path bypasses the transplant cache and starts a new boot
// generation, so a host's translation chain restarts after it: the
// fourth planned hop after an emergency is the first that can hit. One
// full cycle is emergencyEvery hops per host, by whose end at least one
// host has hit.
const emergencyEvery = 5

func verifyGuests(m *meter, vms []*hv.VM) error {
	return m.untimed("guest.verify", func() error {
		for _, vm := range vms {
			if err := vm.Guest.Verify(); err != nil {
				return err
			}
		}
		return nil
	})
}

func (b *inplaceBed) checksums(sim *simLog) error {
	for _, h := range b.hosts {
		if err := checksumVMs(sim, h.name, h.drv.HypervisorKind(), h.drv.VMs()); err != nil {
			return err
		}
	}
	return nil
}

func checksumVMs(sim *simLog, host string, kind hv.Kind, vms []*hv.VM) error {
	sim.line("host %s %v", host, kind)
	for _, vm := range vms {
		sum, err := vm.Space.ChecksumAll()
		if err != nil {
			return fmt.Errorf("checksum %s: %w", vm.Config.Name, err)
		}
		sim.line("  %s %016x", vm.Config.Name, sum)
	}
	return nil
}

func (b *inplaceBed) layers(out map[string]float64, ops int) {
	out["pram.metadata_kb_per_op"] = b.pramBytes / 1024 / float64(ops)
	out["uisr.kb_per_op"] = b.uisrBytes / 1024 / float64(ops)
	out["kexec.wiped_frames_per_op"] = b.wiped / float64(ops)
	st := b.cache.Stats()
	out["tpcache.hit_ratio"] = st.HitRatio()
	if n := st.PRAMHits + st.PRAMMisses; n > 0 {
		out["tpcache.pram_replay_ratio"] = float64(st.PRAMHits) / float64(n)
	}
}
