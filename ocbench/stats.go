package main

import (
	"math"
	"sort"
	"time"

	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/geom"
	"overcell/internal/steiner"
)

// tailQ is the tail percentile every latency is reported at; minTail
// is the number of samples that must lie beyond it for the figure to
// mean anything.
const (
	tailQ   = 0.90
	minTail = 10
)

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1):
// the smallest sample with at least q·n samples at or below it. xs is
// sorted in place. It returns 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// beyond counts the samples strictly past the nearest-rank q-quantile
// of n samples: the evidence behind a tail figure.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// minSamples is the smallest sample count whose tailQ percentile has
// minTail samples beyond it.
func minSamples() int {
	n := minTail
	for beyond(n, tailQ) < minTail {
		n++
	}
	return n
}

// tally counts attempted and failed ops. An op fails when the flow
// returns an error, leaves nets degraded, gets a non-200 reply or a
// state other than done, or when an output check rejects it.
type tally struct {
	attempted, failed int
	// checkFailures counts the failures raised by output checks: they
	// make the whole run incorrect, where a flow error on a hard
	// instance does not.
	checkFailures int
	// firstErr keeps one message per kind for the report.
	firstErr, firstCheck string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(msg string) {
	t.attempted++
	t.failed++
	if t.firstErr == "" {
		t.firstErr = msg
	}
}

// checkFailed records an output-check failure. A check that rejects
// an op already counted as attempted only moves it to failed.
func (t *tally) checkFailed(msg string, counted bool) {
	if !counted {
		t.attempted++
	}
	t.failed++
	t.checkFailures++
	if t.firstCheck == "" {
		t.firstCheck = msg
	}
}

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// meter takes a mark every `every` ops, so the cost figures of a run
// are medians over its intervals: a burst of contention from other
// processes, or one slow input, spoils an interval or two, not the
// run. With every set to a round of the op cycle each interval routes
// the same mix of preset inputs.
type meter struct {
	every int
	n, ok int
	marks []mark
	// now reads the clock, the process CPU time and the allocation
	// counter; tests replace it.
	now func() mark
}

type mark struct {
	t     time.Duration
	cpu   time.Duration
	alloc uint64
	n, ok int
}

func newMeter(every int, now func() mark) *meter {
	m := &meter{every: every, now: now}
	m.marks = append(m.marks, m.take())
	return m
}

func (m *meter) take() mark {
	k := m.now()
	k.n, k.ok = m.n, m.ok
	return k
}

// done counts one op, successful or not.
func (m *meter) done(ok bool) {
	m.n++
	if ok {
		m.ok++
	}
	if m.n%m.every == 0 {
		m.marks = append(m.marks, m.take())
	}
}

// costs returns the medians over whole intervals of successful ops per
// second, CPU time per op and bytes allocated per op. A run shorter
// than one interval is measured as one partial interval.
func (m *meter) costs() (opsPerS float64, cpuPerOp time.Duration, allocPerOp float64) {
	marks := m.marks
	if len(marks) == 1 {
		marks = append(marks, m.take())
	}
	var rate, cpu, alloc []float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		n := b.n - a.n
		if n == 0 || b.t <= a.t {
			continue
		}
		rate = append(rate, float64(b.ok-a.ok)/(b.t-a.t).Seconds())
		cpu = append(cpu, float64(b.cpu-a.cpu)/float64(n))
		alloc = append(alloc, float64(b.alloc-a.alloc)/float64(n))
	}
	return percentile(rate, 0.5), time.Duration(percentile(cpu, 0.5)), percentile(alloc, 0.5)
}

// quality holds the three route-quality ratios of one result.
type quality struct {
	area, wire, viasPerNet float64
}

// measureQuality computes the ratios for res on inst, whose layout the
// flow left placed with its final channel heights:
//
//   - area: layout area over total cell area;
//   - wire: wire length over the steiner.HPWL sum of the nets;
//   - viasPerNet: routing vias over the net count.
func measureQuality(inst *gen.Instance, res *flow.Result) quality {
	var cells int64
	for _, c := range inst.Layout.Cells() {
		cells += int64(c.W) * int64(c.H)
	}
	hpwl := 0
	pts := make([]geom.Point, 0, 64)
	for _, n := range inst.Nets {
		pts = pts[:0]
		for _, p := range n.Pins {
			pts = append(pts, p.Pos())
		}
		hpwl += steiner.HPWL(pts)
	}
	return qualityRatios(res.Area, cells, res.WireLength, hpwl, res.Vias, len(inst.Nets))
}

func qualityRatios(area, cellArea int64, wire, hpwl, vias, nets int) quality {
	var q quality
	if cellArea > 0 {
		q.area = float64(area) / float64(cellArea)
	}
	if hpwl > 0 {
		q.wire = float64(wire) / float64(hpwl)
	}
	if nets > 0 {
		q.viasPerNet = float64(vias) / float64(nets)
	}
	return q
}

// qualityMean averages per-op ratios, so an instance that becomes
// routable adds one more term of the same size rather than its raw
// totals.
type qualityMean struct {
	sum quality
	n   int
}

func (m *qualityMean) add(q quality) {
	m.sum.area += q.area
	m.sum.wire += q.wire
	m.sum.viasPerNet += q.viasPerNet
	m.n++
}

func (m *qualityMean) mean() quality {
	if m.n == 0 {
		return quality{}
	}
	n := float64(m.n)
	return quality{m.sum.area / n, m.sum.wire / n, m.sum.viasPerNet / n}
}

// span is one timed call in the traced replay. Parent is the index of
// the enclosing span, -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Duration
	alloc      uint64
}

func (s span) dur() time.Duration { return s.end - s.start }

// selfTime is span i's duration minus the part of its interval that
// its direct children cover; overlapping children count once.
func selfTime(spans []span, i int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.parent != i {
			continue
		}
		lo, hi := max(s.start, spans[i].start), min(s.end, spans[i].end)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
	covered := time.Duration(0)
	var cur iv
	for k, c := range kids {
		switch {
		case k == 0:
			cur = c
		case c.lo <= cur.hi:
			cur.hi = max(cur.hi, c.hi)
		default:
			covered += cur.hi - cur.lo
			cur = c
		}
	}
	if len(kids) > 0 {
		covered += cur.hi - cur.lo
	}
	return spans[i].dur() - covered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// frac is num/den, or 0 when nothing was attempted.
func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
