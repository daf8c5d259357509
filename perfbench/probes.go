package main

import (
	"fmt"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/metrics"
	"hypertp/internal/pram"
	"hypertp/internal/simtime"
	"hypertp/internal/uisr"
)

// probeReps is how many times each layer probe repeats; the median is
// reported.
const probeReps = 5

// twinVMs are the generated VMs the layer probes run on: the first
// host's guests on inplace-churn, all guests on migrate-dirty, and the
// first eight (one host's worth) on fleet-cve.
func twinVMs(p *plan) []vmSpec {
	switch {
	case len(p.Hosts) > 0 && len(p.Hosts[0].VMs) > 0:
		return p.Hosts[0].VMs
	case len(p.VMs) > 8:
		return p.VMs[:8]
	default:
		return p.VMs
	}
}

// stopwatch collects repeated timings of one probe.
type stopwatch []float64

func (s *stopwatch) time(scale time.Duration, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*s = append(*s, float64(time.Since(t0))/float64(scale))
	return err
}

func (s stopwatch) median() float64 { return metrics.Percentile(s, 50) }

// probeLayers times the PRAM, UISR, hypervisor-codec and memory-copy
// layers in isolation on a twin testbed built from the same generated
// VM configs as the measured one. The measured testbed is never probed.
func probeLayers(p *plan, out map[string]float64) error {
	clock := simtime.NewClock()
	boot := func(kind hv.Kind) (hv.Hypervisor, error) {
		return core.NewEngine(clock, hw.NewMachine(clock, hw.M1())).BootHypervisor(kind)
	}
	xen, err := boot(hv.KindXen)
	if err != nil {
		return err
	}
	kvm, err := boot(hv.KindKVM)
	if err != nil {
		return err
	}
	xen2, err := boot(hv.KindXen)
	if err != nil {
		return err
	}
	specs := twinVMs(p)
	var vms []*hv.VM
	var files []pram.File
	for i, vs := range specs {
		vm, err := xen.CreateVM(vs.config())
		if err != nil {
			return fmt.Errorf("twin %s: %w", vs.Name, err)
		}
		ws := p.writeFor(0, i)
		if err := vm.Guest.WriteWorkingSet(hw.GFN(ws.start), ws.pages); err != nil {
			return err
		}
		ext, err := xen.MemExtents(vm.ID)
		if err != nil {
			return err
		}
		files = append(files, pram.File{Name: vs.Name, VMID: uint32(vm.ID), Extents: ext})
		vms = append(vms, vm)
	}

	mem := xen.Machine().Mem
	var build, ranges, parse stopwatch
	for r := 0; r < probeReps; r++ {
		var s *pram.Structure
		if err := build.time(time.Millisecond, func() (err error) {
			s, err = pram.Build(mem, files, pram.BuildOptions{})
			return err
		}); err != nil {
			return fmt.Errorf("pram build: %w", err)
		}
		ranges.time(time.Millisecond, func() error { s.FrameRanges(); return nil })
		if err := parse.time(time.Millisecond, func() error { _, err := pram.Parse(mem, s.Pointer); return err }); err != nil {
			return fmt.Errorf("pram parse: %w", err)
		}
		if err := s.Release(mem); err != nil {
			return err
		}
	}
	out["pram.build_ms"] = build.median()
	out["pram.frame_ranges_ms"] = ranges.median()
	out["pram.parse_ms"] = parse.median()

	// Per VM: Xen save, UISR encode/decode, KVM restore, KVM save, Xen
	// restore on a second Xen machine, then tear the copies down.
	var saveXen, saveKVM, restoreKVM, restoreXen, enc, dec, copyMS stopwatch
	for _, vm := range vms {
		if err := xen.Pause(vm.ID); err != nil {
			return err
		}
		for r := 0; r < probeReps; r++ {
			var st *uisr.VMState
			if err := saveXen.time(time.Microsecond, func() (err error) { st, err = xen.SaveUISR(vm.ID); return err }); err != nil {
				return fmt.Errorf("xen save %s: %w", vm.Config.Name, err)
			}
			var blob []byte
			if err := enc.time(time.Microsecond, func() (err error) { blob, err = uisr.Encode(st); return err }); err != nil {
				return err
			}
			if err := dec.time(time.Microsecond, func() (err error) { st, err = uisr.Decode(blob); return err }); err != nil {
				return err
			}
			opts := hv.RestoreOptions{Mode: hv.RestoreAllocate, InPlaceCompatible: vm.Config.InPlaceCompatible}
			var onKVM, onXen *hv.VM
			if err := restoreKVM.time(time.Microsecond, func() (err error) { onKVM, err = kvm.RestoreUISR(st, opts); return err }); err != nil {
				return fmt.Errorf("kvm restore %s: %w", vm.Config.Name, err)
			}
			if err := saveKVM.time(time.Microsecond, func() (err error) { st, err = kvm.SaveUISR(onKVM.ID); return err }); err != nil {
				return fmt.Errorf("kvm save %s: %w", vm.Config.Name, err)
			}
			st.MemMap = nil
			if err := restoreXen.time(time.Microsecond, func() (err error) { onXen, err = xen2.RestoreUISR(st, opts); return err }); err != nil {
				return fmt.Errorf("xen restore %s: %w", vm.Config.Name, err)
			}
			if r == 0 {
				// The memory-copy path of MigrationTP's finalize.
				if err := copyMS.time(time.Millisecond, func() error { return vm.Space.CopyContentsTo(onKVM.Space) }); err != nil {
					return err
				}
			}
			if err := kvm.DestroyVM(onKVM.ID); err != nil {
				return err
			}
			if err := xen2.DestroyVM(onXen.ID); err != nil {
				return err
			}
		}
	}
	out["hv.save_uisr_us.xen"] = saveXen.median()
	out["hv.save_uisr_us.kvm"] = saveKVM.median()
	out["hv.restore_uisr_us.kvm"] = restoreKVM.median()
	out["hv.restore_uisr_us.xen"] = restoreXen.median()
	out["uisr.encode_us"] = enc.median()
	out["uisr.decode_us"] = dec.median()
	out["hw.copy_contents_ms"] = copyMS.median()
	return nil
}
