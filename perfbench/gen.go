package main

import (
	"fmt"
	"sort"

	"hypertp/internal/hw"
	"hypertp/internal/simtime"
)

// The generator turns (workload, seed) into the configs the program is
// handed. It is a pure function of its arguments: the same seed gives
// the same hosts, VMs, write sets and crash sets, so two runs of one
// seed drive the program through identical simulated work. Draws come
// from simtime.Rand, whose stream does not change between Go releases.

// between returns a uniform integer in [lo, hi].
func between(r *simtime.Rand, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

// perm returns a seeded shuffle of a copy of vs.
func perm(r *simtime.Rand, vs []int) []int {
	out := append([]int(nil), vs...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// repeat returns n concatenated copies of vs.
func repeat(vs []int, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, vs...)
	}
	return out
}

// derive mixes a stream index into a seed, so per-operation draws are a
// function of (seed, operation) alone and not of how many operations
// ran before.
func derive(seed uint64, stream, i int) uint64 {
	return simtime.NewRand(seed ^ uint64(stream)<<48 ^ uint64(i)*0x2545f4914f6cdd1d).Uint64()
}

// vmSpec is one generated VM.
type vmSpec struct {
	Name         string
	VCPUs        int
	MemBytes     uint64
	HugePages    bool
	Seed         uint64
	InPlace      bool
	DirtyRate    float64 // pages/s while migrating (migrate-dirty)
	WorkingPages int     // pages of the pre-written working set
}

// hostSpec is one generated host and the VMs it boots with.
type hostSpec struct {
	Name string
	VMs  []vmSpec
}

// writeSet is one seeded guest working-set write: npages records of 64
// bytes starting at page start.
type writeSet struct{ start, pages int }

// plan is everything the generator derives from (workload, seed).
type plan struct {
	Seed  uint64
	Hosts []hostSpec
	// VMs the program places itself: on migrate-dirty they all boot on
	// the first host; on fleet-cve Nova schedules them.
	VMs []vmSpec
	// Fleet shape (fleet-cve): host RAM and threads of the slimmed M1
	// profile, and the fraction of hosts a storm crashes.
	HostRAM      uint64
	HostThreads  int
	CrashPerMill int
	// ProbeSeed seeds the heartbeat detector's per-host phases.
	ProbeSeed uint64
	// Working-set writes start below page WriteSpan and cover
	// WriteMin..WriteMax pages. A guest's written set is what
	// Guest.Verify re-reads byte by byte after every operation, so it is
	// kept small: large enough that a lost or corrupted page is caught,
	// small enough that the untimed oracle does not dwarf the timed
	// operation.
	WriteSpan, WriteMin, WriteMax int
}

func generate(workload string, seed uint64) (*plan, error) {
	r := simtime.NewRand(seed)
	p := &plan{Seed: seed, ProbeSeed: r.Uint64(), WriteSpan: 128, WriteMin: 4, WriteMax: 16}
	switch workload {
	case "inplace-churn":
		// 4 M1 hosts; 3-5 huge-page VMs of 0.5-2 GiB and 1-4 vCPUs each,
		// plus one 16-32 MiB VM backed by 4K pages. The draws are
		// stratified: every seed deals the same multisets of VM counts,
		// sizes and vCPUs (and of small-VM sizes) to the hosts in its
		// own order, so each seed carries the same total work and the
		// spread between seeds is the system's, not the sample's.
		counts := perm(r, []int{3, 4, 4, 5})
		sizes := perm(r, repeat([]int{1, 2, 3, 4}, 4))
		vcpus := perm(r, repeat([]int{1, 2, 3, 4}, 4))
		small := perm(r, []int{16, 21, 26, 32})
		for h := 0; h < 4; h++ {
			hs := hostSpec{Name: fmt.Sprintf("host-%d", h)}
			for v := 0; v < counts[h]; v++ {
				k := len(sizes) - 1
				hs.VMs = append(hs.VMs, vmSpec{
					Name:      fmt.Sprintf("h%d-vm%d", h, v),
					VCPUs:     vcpus[k],
					MemBytes:  uint64(sizes[k]) * 512 << 20,
					HugePages: true,
					Seed:      r.Uint64(),
					InPlace:   true,
				})
				sizes, vcpus = sizes[:k], vcpus[:k]
			}
			hs.VMs = append(hs.VMs, vmSpec{
				Name:     fmt.Sprintf("h%d-small", h),
				VCPUs:    1,
				MemBytes: uint64(small[h]) << 20,
				Seed:     r.Uint64(),
				InPlace:  true,
			})
			p.Hosts = append(p.Hosts, hs)
		}
	case "migrate-dirty":
		// Two M1 hosts (the first starts on Xen, the second on KVM) and
		// four large, mostly untouched guests of 1-3 GiB that all start
		// on the first host. Sizes, vCPUs, dirty rates and working sets
		// are stratified as on inplace-churn.
		sizes := perm(r, []int{2, 3, 5, 6})
		vcpus := perm(r, []int{1, 2, 3, 4})
		rates := perm(r, []int{500, 1500, 2500, 4000})
		pages := perm(r, []int{256, 512, 768, 1024})
		for v := 0; v < 4; v++ {
			p.VMs = append(p.VMs, vmSpec{
				Name:         fmt.Sprintf("vm%d", v),
				VCPUs:        vcpus[v],
				MemBytes:     uint64(sizes[v]) * 512 << 20,
				HugePages:    true,
				Seed:         r.Uint64(),
				InPlace:      true,
				DirtyRate:    float64(rates[v]),
				WorkingPages: pages[v],
			})
		}
		p.Hosts = []hostSpec{{Name: "host-xen"}, {Name: "host-kvm"}}
	case "fleet-cve":
		// The 200-host/1600-VM fleet in the shape of the orchestrator's
		// bigFleet: slimmed M1 hosts, 16 MiB single-vCPU guests, every
		// fourth one InPlaceTP-incompatible. The seed picks guest sizes
		// (12-20 MiB, 16 on average), contents, write sets and crash
		// sets; it does not change how Nova packs the fleet.
		p.HostRAM, p.HostThreads, p.CrashPerMill = hw.GiB/2, 12, 125
		// 1600 guests are all verified after every incident.
		p.WriteSpan, p.WriteMin, p.WriteMax = 8, 1, 2
		const hosts, vms = 200, 1600
		for h := 0; h < hosts; h++ {
			p.Hosts = append(p.Hosts, hostSpec{Name: fmt.Sprintf("host-%03d", h)})
		}
		for v := 0; v < vms; v++ {
			p.VMs = append(p.VMs, vmSpec{
				Name:      fmt.Sprintf("vm-%04d", v),
				VCPUs:     1,
				MemBytes:  uint64(between(r, 6, 10)) * 2 << 20,
				HugePages: true,
				Seed:      r.Uint64(),
				InPlace:   v%4 != 3,
			})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want inplace-churn, migrate-dirty or fleet-cve)", workload)
	}
	return p, nil
}

// writeFor returns the working-set write guest vm makes before
// operation op.
func (p *plan) writeFor(op, vm int) writeSet {
	r := simtime.NewRand(derive(p.Seed, 1+vm, op))
	return writeSet{start: between(r, 0, p.WriteSpan-1), pages: between(r, p.WriteMin, p.WriteMax)}
}

// crashSet returns the sorted host indices a storm after incident op
// crashes: CrashPerMill/1000 of the fleet, drawn without replacement.
func (p *plan) crashSet(op int) []int {
	n := len(p.Hosts) * p.CrashPerMill / 1000
	r := simtime.NewRand(derive(p.Seed, 0, op))
	idx := make([]int, len(p.Hosts))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := append([]int(nil), idx[:n]...)
	sort.Ints(out)
	return out
}
