package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"overcell/internal/channel"
	"overcell/internal/core"
	"overcell/internal/floorplan"
	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/global"
	"overcell/internal/grid"
	"overcell/internal/netlist"
	"overcell/internal/obs"
	"overcell/internal/robust"
	"overcell/internal/verify"
)

// recorder keeps the spans of one traced op in memory.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int
	mem   runtime.MemStats
	// allocs marks the spans that read the allocation counter; the
	// read stops the world, so only the layers with an alloc metric
	// pay for it.
	allocs []bool
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, alloc bool) {
	var a uint64
	if alloc {
		runtime.ReadMemStats(&r.mem)
		a = r.mem.TotalAlloc
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.stack = append(r.stack, len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.t0), alloc: a})
	r.allocs = append(r.allocs, alloc)
}

func (r *recorder) end() {
	i := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[i].end = time.Since(r.t0)
	if r.allocs[i] {
		runtime.ReadMemStats(&r.mem)
		r.spans[i].alloc = r.mem.TotalAlloc - r.spans[i].alloc
	}
}

// layers accumulates the per-layer counts over the traced ops.
type layers struct {
	ops int
	// span time and allocation by span name, summed over ops.
	dur   map[string]time.Duration
	alloc map[string]uint64

	channelProblems, channelTracks, doglegTries, greedyFallbacks int
	feedthroughs                                                 int
	gridTracks                                                   int
	coreNets, coreExpanded, speculations, conflicts              int
	verifySegments                                               int

	// From the serial attribution route.
	searchTime, selectTime             time.Duration
	searches, found, prunes, expandMax int
	candidates, selectPruned           int
	escalations, relaxed               int
	ripups, recovered                  int
}

func newLayers() *layers {
	return &layers{dur: map[string]time.Duration{}, alloc: map[string]uint64{}}
}

func (l *layers) addSpans(spans []span) {
	for i, s := range spans {
		if s.parent < 0 {
			l.dur["flow.self"] += selfTime(spans, i)
			continue
		}
		l.dur[s.name] += s.dur()
		l.alloc[s.name] += s.alloc
	}
}

// replayed is the outcome of one traced op.
type replayed struct {
	sum summary
	dur time.Duration // the op span, without the attribution route
	// attribution is non-empty when the serial attribution route did
	// not reproduce the default route.
	attribution string
}

// replay runs one op by calling the layers' public functions in the
// flow's order, with a span around each call. It mirrors
// internal/flow's TwoLayerBaseline, FourLayerChannel, Proposed and
// ChannelFree except for the Elmore delay summary, which feeds none of
// area, wire length or vias.
func replay(in instance, flowName string, acc *layers) (*replayed, error) {
	rec := newRecorder()
	rec.begin("flow", false)
	rp := &replayer{rec: rec, acc: acc}
	out, err := rp.run(in, flowName)
	rec.end()
	acc.addSpans(rec.spans)
	if err != nil {
		return nil, err
	}
	out.dur = rec.spans[0].dur()
	if rp.lastB != nil {
		out.attribution = attribute(rp.lastB, acc)
	}
	return out, nil
}

type replayer struct {
	rec   *recorder
	acc   *layers
	lastB *levelBRun
}

// levelBRun keeps what the attribution route needs to route the same
// grid again.
type levelBRun struct {
	inst *gen.Instance
	nl   *netlist.Netlist
	res  *core.Result
}

func (rp *replayer) run(in instance, flowName string) (*replayed, error) {
	rec := rp.rec
	rec.begin("gen.decode", false)
	inst, err := gen.ReadJSON(bytes.NewReader(in.json))
	rec.end()
	if err != nil {
		return nil, err
	}
	l := inst.Layout
	out := &replayed{}
	switch flowName {
	case "baseline", "proposed", "channel4":
		var subset func(gen.NetSpec) bool
		if flowName == "proposed" {
			subset = gen.NetSpec.LevelA
		}
		heights, wire, vias, err := rp.levelA(inst, subset)
		if err != nil {
			return nil, err
		}
		if flowName == "channel4" {
			// The four-layer model halves every channel.
			for i, h := range heights {
				heights[i] = (h + 1) / 2
			}
		}
		if err := rp.place(l, heights); err != nil {
			return nil, err
		}
		out.sum.wire, out.sum.vias = wire, vias
		if flowName == "proposed" {
			w, v, err := rp.levelB(inst, func(s gen.NetSpec) bool { return !s.LevelA() })
			if err != nil {
				return nil, err
			}
			out.sum.wire += w
			out.sum.vias += v
		}
	case "channelfree":
		sep := make([]int, l.NumChannels())
		for i := range sep {
			sep[i] = l.Tech.M34Pitch
		}
		if err := rp.place(l, sep); err != nil {
			return nil, err
		}
		w, v, err := rp.levelB(inst, nil)
		if err != nil {
			return nil, err
		}
		out.sum.wire, out.sum.vias = w, v
	default:
		return nil, fmt.Errorf("no replay for flow %q", flowName)
	}
	out.sum.area = l.Area()
	return out, nil
}

func (rp *replayer) place(l *floorplan.Layout, heights []int) error {
	rp.rec.begin("floorplan.place", false)
	defer rp.rec.end()
	return l.Place(heights)
}

// levelA is global assignment plus one channel router per channel:
// dogleg, with greedy as the fallback, as flow.AutoChannel does.
func (rp *replayer) levelA(inst *gen.Instance, subset func(gen.NetSpec) bool) (heights []int, wire, vias int, err error) {
	l := inst.Layout
	if err := rp.place(l, make([]int, l.NumChannels())); err != nil {
		return nil, 0, 0, err
	}
	rp.rec.begin("global.assign", false)
	asg, err := global.Assign(l, inst.GlobalNets(subset))
	rp.rec.end()
	if err != nil {
		return nil, 0, 0, err
	}
	heights = make([]int, l.NumChannels())
	pitch := l.Tech.M12Pitch
	for i, p := range asg.Problems {
		sol := &channel.Solution{Width: p.Width(), Algorithm: "empty"}
		if !emptyProblem(p) {
			rp.rec.begin("channel.route", true)
			sol, err = channel.Dogleg(p)
			rp.acc.doglegTries++
			if err != nil {
				rp.acc.greedyFallbacks++
				sol, err = channel.Greedy(p)
			}
			rp.rec.end()
			if err != nil {
				return nil, 0, 0, fmt.Errorf("channel %d: %w", i, err)
			}
			rp.acc.channelProblems++
			rp.acc.channelTracks += sol.Tracks
		}
		heights[i] = sol.Height(pitch)
		wire += sol.WireLength(asg.ColPitch, pitch)
		vias += sol.ViaCount()
	}
	rp.acc.feedthroughs += asg.Feedthroughs
	return heights, wire + asg.FeedthroughLen, vias, nil
}

func emptyProblem(p *channel.Problem) bool {
	for i := range p.Top {
		if p.Top[i] != 0 || p.Bottom[i] != 0 {
			return false
		}
	}
	return true
}

// levelB builds the over-cell grid, routes the subset with the core
// router at its defaults and verifies the result.
func (rp *replayer) levelB(inst *gen.Instance, subset func(gen.NetSpec) bool) (wire, vias int, err error) {
	nl, _ := inst.BuildNetlist(subset)
	if err := nl.Validate(); err != nil {
		return 0, 0, err
	}
	rp.rec.begin("grid.build", false)
	g, obstacles, err := levelBGrid(inst, nl)
	rp.rec.end()
	if err != nil {
		return 0, 0, err
	}
	for _, n := range nl.Nets() {
		for _, t := range n.Terminals {
			for _, o := range obstacles {
				if o.Mask == grid.MaskBoth && o.Rect.Contains(t.Pos) {
					return 0, 0, fmt.Errorf("net %q terminal %v inside obstacle %v", n.Name, t.Pos, o.Rect)
				}
			}
		}
	}
	rp.acc.gridTracks += g.NX() + g.NY()
	cfg := core.DefaultConfig()
	par := &parallelCounter{}
	cfg.Tracer = par
	rp.rec.begin("core.route", true)
	res, err := core.New(g, cfg).Route(nl.Nets())
	rp.rec.end()
	if err != nil {
		return 0, 0, err
	}
	rp.acc.speculations += par.speculated
	rp.acc.conflicts += par.conflicts
	rp.acc.coreNets += len(res.Routes)
	rp.acc.coreExpanded += res.Expanded
	if res.Failed > 0 {
		return 0, 0, fmt.Errorf("%d level B nets unroutable: %w", res.Failed, robust.ErrUnroutable)
	}
	var regions []verify.Region
	for _, o := range obstacles {
		cols, rows, ok := g.IndexWindow(o.Rect)
		if !ok {
			continue
		}
		regions = append(regions, verify.Region{
			Cols: cols, Rows: rows,
			BlocksH: o.Mask&grid.MaskH != 0,
			BlocksV: o.Mask&grid.MaskV != 0,
		})
	}
	rp.rec.begin("verify", true)
	err = verify.LevelB(res, regions)
	rp.rec.end()
	if err != nil {
		return 0, 0, err
	}
	for _, nr := range res.Routes {
		rp.acc.verifySegments += len(nr.Segments)
	}
	rp.lastB = &levelBRun{inst: inst, nl: nl, res: res}
	return res.WireLength, res.Vias, nil
}

// levelBGrid builds the level B grid as flow does: uniform tracks at
// the metal3/metal4 pitch plus a track through every terminal, with
// the obstacles blocked.
func levelBGrid(inst *gen.Instance, nl *netlist.Netlist) (*grid.Grid, []gen.Obstacle, error) {
	l := inst.Layout
	xs, ys := map[int]bool{}, map[int]bool{}
	pitch := l.Tech.M34Pitch
	for x := 0; x <= l.Width(); x += pitch {
		xs[x] = true
	}
	for y := 0; y <= l.Height(); y += pitch {
		ys[y] = true
	}
	for _, n := range nl.Nets() {
		for _, t := range n.Terminals {
			xs[t.Pos.X] = true
			ys[t.Pos.Y] = true
		}
	}
	g, err := grid.New(sortedKeys(xs), sortedKeys(ys))
	if err != nil {
		return nil, nil, err
	}
	obstacles := inst.Obstacles()
	for _, o := range obstacles {
		g.BlockRect(o.Rect, o.Mask)
	}
	return g, obstacles, nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// parallelCounter sums the speculate/validate/commit batches of the
// default-workers route.
type parallelCounter struct{ speculated, conflicts int }

func (*parallelCounter) Enabled() bool { return true }

func (p *parallelCounter) Emit(e obs.Event) {
	if e.Type == obs.EvParallel {
		p.speculated += e.Speculated
		p.conflicts += e.Conflicts
	}
}

// stamper times the serial route from its events: the interval that
// ends at an mbfs event is TIG search time, the one that ends at a
// select event is path selection. The events also give the counts.
type stamper struct {
	acc  *layers
	last time.Time
}

func (*stamper) Enabled() bool { return true }

func (s *stamper) Emit(e obs.Event) {
	now := time.Now()
	gap := now.Sub(s.last)
	s.last = now
	a := s.acc
	switch e.Type {
	case obs.EvMBFS:
		a.searchTime += gap
		a.searches++
		if !e.Failed {
			a.found++
		}
		a.prunes += e.Pruned
		a.expandMax = max(a.expandMax, e.Expanded)
	case obs.EvSelect:
		a.selectTime += gap
		a.candidates += e.Paths
		a.selectPruned += e.Pruned
	case obs.EvEscalate:
		if e.Relaxed {
			a.relaxed++
		} else {
			a.escalations++
		}
	case obs.EvRipup:
		a.ripups++
		if !e.Failed {
			a.recovered++
		}
	}
}

// attribute routes the op's level B grid again at Workers=1 with the
// stamping tracer: parallel workers replay their events at commit
// time, so only a serial route times the search and selection calls
// as they happen. The serial result must equal the default route's.
func attribute(b *levelBRun, acc *layers) string {
	g, _, err := levelBGrid(b.inst, b.nl)
	if err != nil {
		return fmt.Sprintf("attribution grid: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	cfg.Tracer = &stamper{acc: acc, last: time.Now()}
	res, err := core.New(g, cfg).Route(b.nl.Nets())
	if err != nil {
		return fmt.Sprintf("attribution route: %v", err)
	}
	if flow.Hash(&flow.Result{LevelB: res}) != flow.Hash(&flow.Result{LevelB: b.res}) {
		return "the Workers=1 route differs from the default-workers route"
	}
	return ""
}
