package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"
)

// acc accumulates the host time and heap allocation of repeated calls.
type acc struct {
	total time.Duration
	alloc uint64
	n     int
}

// meanMS is the mean host milliseconds per call (0 with no calls).
func (a *acc) meanMS() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return a.total.Seconds() * 1e3 / float64(a.n)
}

// meter times the system under test. Only the calls passed to timed
// count toward an operation; guest writes, the output oracle and probes
// go through untimed or happen outside the meter entirely. Forced GCs
// run between operations, and the collector charges each operation its
// share of them. Allocation is read with runtime.ReadMemStats on both
// sides of each timed call, so the stop-the-world read itself is never
// inside the interval.
type meter struct {
	ops      []float64 // host ms per completed operation, GC share included
	opAlloc  []uint64  // heap bytes allocated by each completed operation
	cur      time.Duration
	curAlloc uint64
	alloc    uint64 // heap bytes allocated inside timed calls
	timedBy  map[string]*acc
	aside    map[string]*acc
	ms       runtime.MemStats
	gc       *collector // nil on set-up meters
}

func newMeter() *meter {
	return &meter{timedBy: map[string]*acc{}, aside: map[string]*acc{}}
}

func bucket(m map[string]*acc, label string) *acc {
	a, ok := m[label]
	if !ok {
		a = &acc{}
		m[label] = a
	}
	return a
}

// timed runs fn as part of the current operation and charges its host
// time and allocation to the operation and to label.
func (m *meter) timed(label string, fn func() error) error {
	a := bucket(m.timedBy, label)
	runtime.ReadMemStats(&m.ms)
	a0 := m.ms.TotalAlloc
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m.ms)
	da := m.ms.TotalAlloc - a0
	m.cur += d
	m.curAlloc += da
	m.alloc += da
	a.total += d
	a.alloc += da
	a.n++
	return err
}

// untimed runs harness work (guest writes, verification) and records its
// host time under label without charging any operation.
func (m *meter) untimed(label string, fn func() error) error {
	a := bucket(m.aside, label)
	t0 := time.Now()
	err := fn()
	a.total += time.Since(t0)
	a.n++
	return err
}

// endOp closes the current operation and hands it to the collector.
func (m *meter) endOp() {
	m.ops = append(m.ops, m.cur.Seconds()*1e3)
	m.opAlloc = append(m.opAlloc, m.curAlloc)
	m.cur, m.curAlloc = 0, 0
	if m.gc != nil {
		m.gc.pending = append(m.gc.pending, opRef{m, len(m.ops) - 1})
	}
}

// collector forces garbage collections between operations, so that the
// runtime never starts a cycle inside a timed call to collect the
// untimed oracle's garbage. Each forced collection's host time is
// charged to the operations completed since the previous one, in
// proportion to their share of all heap bytes allocated in between. The
// system's GC cost thus stays in ops_per_s and op_ms_*, and the
// harness's does not.
type collector struct {
	pending []opRef
	// base and allocAt are the live heap and TotalAlloc after the last
	// collection.
	base, allocAt uint64
	ms            runtime.MemStats
}

type opRef struct {
	m *meter
	i int
}

// maybe collects once the heap has grown by half its live size, before
// the runtime's own trigger (at double) would.
func (c *collector) maybe() {
	runtime.ReadMemStats(&c.ms)
	if c.ms.HeapAlloc > c.base+c.base/2 {
		c.collect()
	}
}

// collect runs a full GC and charges it to the pending operations.
func (c *collector) collect() {
	runtime.ReadMemStats(&c.ms)
	since := c.ms.TotalAlloc - c.allocAt
	t0 := time.Now()
	runtime.GC()
	gcMS := time.Since(t0).Seconds() * 1e3
	for _, r := range c.pending {
		if since > 0 {
			r.m.ops[r.i] += gcMS * float64(r.m.opAlloc[r.i]) / float64(since)
		}
	}
	c.pending = c.pending[:0]
	runtime.ReadMemStats(&c.ms)
	c.base, c.allocAt = c.ms.HeapAlloc, c.ms.TotalAlloc
}

// timedSeconds is the host time of all completed operations.
func (m *meter) timedSeconds() float64 {
	var s float64
	for _, v := range m.ops {
		s += v
	}
	return s / 1e3
}

// simLog records the simulated outputs of the fixed operation prefix
// every run makes: virtual durations, placements and guest checksums go
// into a SHA-256 digest, per-VM downtimes and the virtual elapsed time
// into the sim_* metrics. A nil *simLog discards everything, which is
// how operations past the prefix run.
type simLog struct {
	h         hash.Hash
	downtimes []float64 // virtual ms, one per VM per operation
	elapsed   time.Duration
}

func newSimLog() *simLog { return &simLog{h: sha256.New()} }

func (s *simLog) line(format string, args ...any) {
	if s != nil {
		fmt.Fprintf(s.h, format+"\n", args...)
	}
}

func (s *simLog) downtime(d time.Duration) {
	if s != nil {
		s.downtimes = append(s.downtimes, d.Seconds()*1e3)
	}
}

func (s *simLog) advance(d time.Duration) {
	if s != nil {
		s.elapsed += d
	}
}

func (s *simLog) digest() string { return hex.EncodeToString(s.h.Sum(nil)) }
