package main

import (
	"errors"
	"fmt"
	"time"

	"tracepre/internal/emulator"
	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
	"tracepre/internal/program"
	"tracepre/internal/sample"
	"tracepre/internal/trace"
)

// Sampled-run phases. The ledger's second view splits sampled group
// time by the leader runner's phase: raw fast-forward (decoded and
// segmented, withheld from the simulators), warm-model fast-forward,
// and detail (warm-up plus measurement units).
const (
	phaseRaw = iota
	phaseFFWarm
	phaseDetail
	numPhases
)

// tracer drives the simulator's layers through their public functions
// on one goroutine, mirroring harness.broadcastRun and
// broadcastRunSampled, and times every call from outside into a ledger.
type tracer struct {
	l      *ledger
	root   int32
	budget uint64
	plan   *sample.Plan

	recorded, drained uint64 // stream instructions
	streamBytes       int64
	groupInstrs       uint64            // stream instructions the group loops decoded
	segmented         uint64            // stream instructions segmented
	fed               map[string]uint64 // per point: instructions fed to its simulators

	phaseNs     [numPhases]time.Duration
	phaseInstrs [numPhases]uint64 // stream instructions x live members

	solo map[string]soloPass // per point: the single-member passes
}

// soloPass totals the single-member passes of one point.
type soloPass struct {
	ns     time.Duration
	allocs uint64
	instrs uint64
}

func newTracer(budget uint64, plan *sample.Plan) *tracer {
	return &tracer{
		l:      newLedger(),
		budget: budget,
		plan:   plan,
		fed:    map[string]uint64{},
		solo:   map[string]soloPass{},
	}
}

// soloPoints are the points run again alone, one simulator per pass,
// so their difference isolates fill-unit preprocessing.
var soloPoints = [2]string{"base", "preproc"}

// run drives the workload traced and returns its cells in grid order,
// each with the Result (and sampled Stats) the traced drive produced.
func (t *tracer) run(w workload, seed int64) ([]harness.Cell, tally, error) {
	var (
		cells []harness.Cell
		chk   tally
	)
	l := t.l
	t.root = l.open("run", -1, -1)
	defer l.close(t.root)
	for _, bench := range w.benches {
		for _, seed := range w.seeds(seed) {
			if err := t.runGroup(w, bench, seed, &cells, &chk); err != nil {
				return nil, chk, err
			}
		}
	}
	return cells, chk, nil
}

// runGroup generates, records and decodes one program's stream, then
// drives its group of cells. The group id names the program.
func (t *tracer) runGroup(w workload, bench string, seed int64, cells *[]harness.Cell, chk *tally) error {
	l := t.l
	gi := l.group(fmt.Sprintf("%s/%d", bench, seed))
	sp := l.open("workload.generate", gi, t.root)
	im, err := harness.ImageSeed(bench, seed)
	l.close(sp)
	if err != nil {
		return err
	}
	sp = l.open("emulator.record", gi, t.root)
	st, err := emulator.Record(im, t.budget)
	l.close(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", bench, err)
	}
	t.recorded += st.Len()
	t.streamBytes += int64(st.Bytes())

	sp = l.open("emulator.decode", gi, t.root)
	n, err := drain(st)
	l.close(sp)
	if err != nil {
		return fmt.Errorf("%s: decode: %w", bench, err)
	}
	t.drained += n

	group := make([]harness.Cell, len(w.points))
	for i, p := range w.points {
		p.Cfg.Precon.MeasureOverhead = true
		group[i] = harness.Cell{Bench: bench, Seed: seed, Point: p}
	}
	gsp := l.open("group", gi, t.root)
	if t.plan != nil {
		err = t.sampledGroup(gi, gsp, im, st, group)
	} else {
		err = t.fullGroup(gi, gsp, im, st, group)
	}
	l.close(gsp)
	if err != nil {
		return fmt.Errorf("%s: %w", bench, err)
	}
	if err := t.soloPasses(gi, im, st, group, chk); err != nil {
		return fmt.Errorf("%s: %w", bench, err)
	}
	*cells = append(*cells, group...)
	return nil
}

// drain decodes the whole stream and discards it: the decode layer's
// cost on its own.
func drain(st *emulator.Stream) (uint64, error) {
	cr := st.DecodeChunks(0)
	defer cr.Close()
	var n uint64
	for {
		chunk, ok := cr.Next()
		if !ok {
			return n, cr.Err()
		}
		n += uint64(len(chunk))
	}
}

// selection returns the SelectConfig every point of the group shares.
func selection(cells []harness.Cell) (trace.SelectConfig, error) {
	sel := cells[0].Point.Cfg.Select
	for _, c := range cells[1:] {
		if c.Point.Cfg.Select != sel {
			return sel, errNotShared
		}
	}
	return sel, nil
}

// Chunk accumulator slots: decode wait, segmentation, raw skips, then
// one pipeline step slot per member.
const (
	accWait = iota
	accSegment
	accSkipRaw
	accStep0
)

func (t *tracer) chunkAccs(cells []harness.Cell) []acc {
	accs := []acc{
		{name: t.l.name("emulator.decode_wait")},
		{name: t.l.name("trace.segment")},
		{name: t.l.name("sample.skip_raw")},
	}
	for _, c := range cells {
		accs = append(accs, acc{name: t.l.name("pipeline.step." + c.Point.Name)})
	}
	return accs
}

// newSims builds one simulator per member, timed as pipeline.new.
func (t *tracer) newSims(gi, parent int32, im *program.Image, cells []harness.Cell) ([]*pipeline.Simulator, error) {
	sp := t.l.open("pipeline.new", gi, parent)
	defer t.l.close(sp)
	sims := make([]*pipeline.Simulator, len(cells))
	for i, c := range cells {
		cfg := c.Point.Cfg
		if t.plan != nil {
			cfg.FFObservePrecon = t.plan.ObservePrecon // as the harness's samplingCfg
		}
		var err error
		if sims[i], err = pipeline.New(im, cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", c.Point.Name, err)
		}
	}
	return sims, nil
}

// fullGroup mirrors harness.broadcastRun for a group sharing one
// SelectConfig: one decode, one segmentation, every member stepped
// over each trace in lockstep.
func (t *tracer) fullGroup(gi, parent int32, im *program.Image, st *emulator.Stream, cells []harness.Cell) error {
	sel, err := selection(cells)
	if err != nil {
		return err
	}
	l := t.l
	sims, err := t.newSims(gi, parent, im, cells)
	if err != nil {
		return err
	}
	for i, sim := range sims {
		if err := sim.StartChunked(t.budget); err != nil {
			return fmt.Errorf("%s: %w", cells[i].Point.Name, err)
		}
	}

	accs := t.chunkAccs(cells)
	fed := make([]uint64, len(cells))
	cr := st.DecodeChunks(0)
	defer cr.Close()
	seg := trace.NewChunkSegmenter(sel)
	alive := make([]bool, len(sims))
	for i := range alive {
		alive[i] = true
	}
	live := len(sims)
	for live > 0 {
		t0 := l.now()
		chunk, ok := cr.Next()
		t1 := l.now()
		accs[accWait].add(t0, t1)
		if !ok {
			l.flushChunk(gi, parent, t0, t1, accs)
			break
		}
		t.groupInstrs += uint64(len(chunk))
		t.segmented += uint64(len(chunk))
		for len(chunk) > 0 {
			used, tr, dyns := seg.Feed(chunk)
			t2 := l.now()
			accs[accSegment].add(t1, t2)
			t1 = t2
			if tr == nil {
				break
			}
			chunk = chunk[used:]
			for i, sim := range sims {
				if !alive[i] {
					continue
				}
				done, err := sim.RunTrace(tr, dyns)
				t2 = l.now()
				accs[accStep0+i].add(t1, t2)
				t1 = t2
				if err != nil {
					return fmt.Errorf("%s: %w", cells[i].Point.Name, err)
				}
				fed[i] += uint64(len(dyns))
				if done {
					alive[i] = false
					live--
				}
			}
		}
		l.flushChunk(gi, parent, t0, t1, accs)
	}
	if err := cr.Err(); err != nil {
		return err
	}
	for i, sim := range sims {
		sp := l.open("pipeline.finish", gi, parent)
		res, err := sim.Finish()
		l.close(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", cells[i].Point.Name, err)
		}
		cells[i].Result = res
		t.fed[cells[i].Point.Name] += fed[i]
	}
	return nil
}

// sampledGroup mirrors harness.broadcastRunSampled: one decode, one
// segmentation, every member's sample.Runner fed in lockstep, with raw
// fast-forward stretches skipped for the whole group at once.
func (t *tracer) sampledGroup(gi, parent int32, im *program.Image, st *emulator.Stream, cells []harness.Cell) error {
	sel, err := selection(cells)
	if err != nil {
		return err
	}
	l := t.l
	plan := t.plan
	sims, err := t.newSims(gi, parent, im, cells)
	if err != nil {
		return err
	}
	runners := make([]*sample.Runner, len(cells))
	for i, sim := range sims {
		if runners[i], err = sample.NewRunner(sim, *plan, t.budget); err != nil {
			return fmt.Errorf("%s: %w", cells[i].Point.Name, err)
		}
	}
	leader := func() *sample.Runner {
		for _, r := range runners {
			if !r.Done() {
				return r
			}
		}
		return nil
	}

	accs := t.chunkAccs(cells)
	fed := make([]uint64, len(cells))
	cr := st.DecodeChunks(0)
	defer cr.Close()
	seg := trace.NewChunkSegmenter(sel)
	segmenting := true
	live := len(runners)
	for live > 0 {
		t0 := l.now()
		chunk, ok := cr.Next()
		t1 := l.now()
		accs[accWait].add(t0, t1)
		if !ok {
			l.flushChunk(gi, parent, t0, t1, accs)
			break
		}
		t.groupInstrs += uint64(len(chunk))
		for len(chunk) > 0 && live > 0 {
			ld := leader()
			if ld == nil {
				break
			}
			members := uint64(live)
			if !plan.WarmModel && ld.Phase() == pipeline.PhaseFastForward {
				n := ld.FFRemaining()
				if c := uint64(len(chunk)); n > c {
					n = c
				}
				for i, r := range runners {
					if r.Done() {
						continue
					}
					if err := r.SkipRaw(n); err != nil {
						return fmt.Errorf("%s: %w", cells[i].Point.Name, err)
					}
					if r.Done() {
						live--
					}
				}
				t2 := l.now()
				accs[accSkipRaw].add(t1, t2)
				t.phaseNs[phaseRaw] += t2 - t1
				t.phaseInstrs[phaseRaw] += n * members
				t1 = t2
				chunk = chunk[n:]
				segmenting = false
				continue
			}
			if !segmenting {
				seg.Reset()
				segmenting = true
			}
			used, tr, dyns := seg.Feed(chunk)
			t2 := l.now()
			accs[accSegment].add(t1, t2)
			segNs := t2 - t1
			t1 = t2
			t.segmented += uint64(used)
			chunk = chunk[used:]
			if tr == nil {
				t.phaseNs[phaseOf(ld, plan.WarmModel && ld.RawFFRemaining() > 0)] += segNs
				break
			}
			k := uint64(len(dyns))
			raw := plan.WarmModel && ld.RawFFRemaining() >= k
			ph := phaseOf(ld, raw)
			start := t1
			for i, r := range runners {
				if r.Done() {
					continue
				}
				if raw {
					err = r.SkipRaw(k)
				} else {
					_, err = r.Feed(tr, dyns)
					t2 = l.now()
					accs[accStep0+i].add(t1, t2)
					t1 = t2
					fed[i] += k
				}
				if err != nil {
					return fmt.Errorf("%s: %w", cells[i].Point.Name, err)
				}
				if r.Done() {
					live--
				}
			}
			if raw {
				t1 = l.now()
				accs[accSkipRaw].add(start, t1)
			}
			t.phaseNs[ph] += segNs + t1 - start
			t.phaseInstrs[ph] += k * members
		}
		l.flushChunk(gi, parent, t0, t1, accs)
	}
	if err := cr.Err(); err != nil {
		return err
	}
	for i, r := range runners {
		sp := l.open("pipeline.finish", gi, parent)
		ss, err := r.Finish()
		l.close(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", cells[i].Point.Name, err)
		}
		cells[i].Sample = ss
		cells[i].Result = ss.Aggregate
		t.fed[cells[i].Point.Name] += fed[i]
	}
	return nil
}

// phaseOf classifies the leader's next trace.
func phaseOf(ld *sample.Runner, raw bool) int {
	switch {
	case raw:
		return phaseRaw
	case ld.Phase() == pipeline.PhaseFastForward:
		return phaseFFWarm
	default:
		return phaseDetail
	}
}

// soloPasses runs the group's base and preproc points again, each
// alone over the stream and bracketed by one clock and one allocation
// read, when the group has both. Each pass must reproduce its group
// member's Result.
func (t *tracer) soloPasses(gi int32, im *program.Image, st *emulator.Stream, cells []harness.Cell, chk *tally) error {
	byName := map[string]*harness.Cell{}
	for i := range cells {
		byName[cells[i].Point.Name] = &cells[i]
	}
	if t.plan != nil || byName[soloPoints[0]] == nil || byName[soloPoints[1]] == nil {
		return nil
	}
	for _, name := range soloPoints {
		c := byName[name]
		sp := t.l.open("pipeline.solo."+name, gi, t.root)
		a0 := heapAllocs()
		sim, err := pipeline.New(im, c.Point.Cfg)
		var res pipeline.Result
		if err == nil {
			res, err = sim.RunStream(st, t.budget)
		}
		a1 := heapAllocs()
		t.l.close(sp)
		if err != nil {
			return fmt.Errorf("%s alone: %w", name, err)
		}
		chk.add(sameCell(&harness.Cell{Result: res}, c), "%s/%s: alone, simulated differently than in its group", c.Bench, name)
		s := t.solo[name]
		s.ns += t.l.spans[sp].busy
		s.allocs += a1 - a0
		s.instrs += res.Instructions
		t.solo[name] = s
	}
	return nil
}

// errNotShared rejects a group the traced drive cannot mirror: the
// harness segments once per group only when every member selects
// traces alike.
var errNotShared = errors.New("traced run needs every point of a group to share one SelectConfig")
