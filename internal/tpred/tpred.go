// Package tpred implements the path-based next-trace predictor of
// Jacobson, Rotenberg and Smith (MICRO-30, 1997), which the trace
// processor frontend uses in place of a conventional branch predictor:
// traces are the unit of prediction, and the predictor maps a hashed
// history of recent trace IDs to the ID of the trace expected next.
//
// The configuration modeled here is the enhanced hybrid of §6 of the
// preconstruction paper: a tagged primary (correlating) table indexed by
// the full path history, a tagless secondary table indexed by the most
// recent trace only (which warms up quickly and catches cold starts and
// aliasing losses), and a return history stack (RHS) that saves path
// history across calls so post-return predictions correlate with
// pre-call history.
package tpred

import (
	"fmt"

	"tracepre/internal/trace"
)

// The predictor's sizes, which no experiment varies.
const (
	PrimaryEntries   = 1 << 15 // tagged path table (power of two)
	SecondaryEntries = 1 << 13 // last-trace table (power of two)
	HistoryTraces    = 4       // trace IDs folded into the path history
	RHSDepth         = 16      // return history stack depth

	// histBits is how far the path history shifts per trace, so it
	// holds HistoryTraces traces.
	histBits = 64 / HistoryTraces
)

// Config selects the predictor's ablations. The zero value is the
// hybrid the experiments use.
type Config struct {
	// DisableSecondary removes the hybrid's last-trace fallback table
	// (ablation: cold starts and aliasing go unserved).
	DisableSecondary bool
	// DisableRHS removes the return history stack (ablation: path
	// history is clobbered across calls).
	DisableRHS bool
}

type entry struct {
	tag   uint16
	id    trace.ID
	conf  uint8 // 2-bit confidence
	valid bool
}

// Stats counts predictor behaviour.
type Stats struct {
	Predictions uint64
	Correct     uint64
	FromPrimary uint64 // predictions served by the path table
	NoPredict   uint64 // cycles with nothing to offer
}

// Accuracy returns Correct/Predictions (0 when idle).
func (s Stats) Accuracy() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Predictions)
}

// Tables is the predictor's trained state: the primary and secondary
// tables, the path history, the return history stack and the last
// trace ID. It learns from the committed trace sequence alone, so
// simulators fed the same demanded traces — the members of a sweep
// group — would train identical copies; one Tables serves them all
// through a Predictor view each.
//
// Views sharing a Tables must be fed in lockstep: every view consumes
// trace n (Predict then Update, or Train) before any view moves on to
// trace n+1. The tables then advance once per trace index. The first
// view to reach trace n looks it up from the state before n and caches
// the lookup, and later views reuse it; the first Update or Train of
// trace n trains the tables, and later ones for the same n do nothing.
// A view more than one trace away from its tables breaks that contract
// and panics.
type Tables struct {
	cfg       Config
	primary   []entry
	secondary []entry
	hist      uint64
	rhs       [RHSDepth]uint64
	rhsTop    int
	rhsSize   int
	lastID    trace.ID
	haveLast  bool

	n    uint64 // traces trained so far
	look lookup // the latest lookup: of trace n, or of trace n-1
}

// lookup is one trace's table lookup, taken from the state before that
// trace trained the tables: the slots a prediction reads and training
// writes, and the prediction they hold.
type lookup struct {
	trace      uint64 // index of the trace looked up
	pIdx, sIdx int
	pTag       uint16
	id         trace.ID
	ok         bool // id is a prediction
	primary    bool // from the path table
}

// NewTables builds one set of predictor tables.
func NewTables(cfg Config) *Tables {
	t := &Tables{
		cfg:       cfg,
		primary:   make([]entry, PrimaryEntries),
		secondary: make([]entry, SecondaryEntries),
	}
	t.look.trace = ^uint64(0) // none yet
	return t
}

// View returns a new predictor over the tables, positioned at the next
// trace they have not trained. Its counters start at zero.
func (t *Tables) View() *Predictor { return &Predictor{t: t, n: t.n} }

// Predictor is one simulator's view of the hybrid path-based next-trace
// predictor: its own counters and pending prediction over Tables that
// may be shared (see Tables).
type Predictor struct {
	t *Tables
	n uint64 // traces this view has consumed

	stats     Stats
	predicted trace.ID // what the last Predict offered, for Update
	havePred  bool
}

func fold(h uint64) uint32 {
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 29
	return uint32(h)
}

// lookupAt returns trace i's lookup: the cached one when a view has
// already looked trace i up, else one taken now from the current state,
// which must then be the state before trace i. Any other i is a view
// out of lockstep, and panics.
func (t *Tables) lookupAt(i uint64) *lookup {
	l := &t.look
	if l.trace == i {
		return l
	}
	if i != t.n {
		panic(fmt.Sprintf("tpred: view at trace %d, tables at trace %d: views sharing tables must be fed in lockstep", i, t.n))
	}
	f := fold(t.hist)
	l.trace = i
	l.pIdx = int(f) & (PrimaryEntries - 1)
	l.pTag = uint16(f >> 16)
	l.sIdx = int(t.lastID.Hash()) & (SecondaryEntries - 1)
	l.id, l.ok, l.primary = trace.ID{}, false, false
	if e := &t.primary[l.pIdx]; e.valid && e.tag == l.pTag {
		l.id, l.ok, l.primary = e.id, true, true
	} else if t.haveLast && !t.cfg.DisableSecondary {
		if e := &t.secondary[l.sIdx]; e.valid {
			l.id, l.ok = e.id, true
		}
	}
	return l
}

// Predict returns the predicted next trace ID. ok is false when neither
// table has anything useful (cold start), in which case the frontend
// falls back to the slow path immediately.
func (p *Predictor) Predict() (id trace.ID, ok bool) {
	l := p.t.lookupAt(p.n)
	p.stats.Predictions++
	if l.primary {
		p.stats.FromPrimary++
	}
	if !l.ok {
		p.stats.NoPredict++
	}
	p.predicted, p.havePred = l.id, l.ok
	return l.id, l.ok
}

// Update trains the predictor with the actual next trace and advances
// the path history. The actual trace's control character drives the
// return history stack: traces containing calls push a history snapshot,
// traces ending in returns restore one. Update trains at the slots the
// preceding Predict read — every demanded trace is predicted before it
// retires, so prediction and training always agree on where in the
// tables this path lives.
func (p *Predictor) Update(actual *trace.Trace) {
	if p.havePred && p.predicted == actual.ID() {
		p.stats.Correct++
	}
	p.Train(actual)
}

// Train trains the predictor without counting a prediction: the slots
// are the ones Predict would have read from the current history. The
// sampled fast-forward path uses it — the skipped stream retires
// without predictions, but the tables must be trained at the same slots
// a full-detail run would train, or the path-indexed primary
// degenerates to thrashing whichever slot the last real prediction
// touched.
func (p *Predictor) Train(actual *trace.Trace) {
	if p.t.n != p.n+1 { // else a view sharing the tables trained this trace
		p.t.train(p.n, actual)
	}
	p.n++
	p.havePred = false
}

// train trains the tables with the actual trace i, which must be the
// next they have not trained (lookupAt panics otherwise).
func (t *Tables) train(i uint64, actual *trace.Trace) {
	l := t.lookupAt(i)
	id := actual.ID()

	// Train the primary (tagged) table at the slot the lookup read.
	e := &t.primary[l.pIdx]
	switch {
	case e.valid && e.tag == l.pTag && e.id == id:
		if e.conf < 3 {
			e.conf++
		}
	case e.valid && e.tag == l.pTag:
		if e.conf > 0 {
			e.conf--
		} else {
			e.id = id
			e.conf = 1
		}
	default:
		// Tag miss: allocate.
		*e = entry{tag: l.pTag, id: id, conf: 1, valid: true}
	}

	// Train the secondary (last-trace) table.
	if t.haveLast {
		se := &t.secondary[l.sIdx]
		switch {
		case se.valid && se.id == id:
			if se.conf < 3 {
				se.conf++
			}
		case se.valid:
			if se.conf > 0 {
				se.conf--
			} else {
				se.id = id
				se.conf = 1
			}
		default:
			*se = entry{id: id, conf: 1, valid: true}
		}
	}

	// Advance path history with the actual trace.
	t.hist = t.hist<<histBits ^ uint64(id.Hash())
	t.lastID = id
	t.haveLast = true

	// Return history stack: push after calls, restore at returns.
	if actual.ContainsCall() && !t.cfg.DisableRHS {
		t.rhsPush(t.hist)
	}
	if actual.EndsInReturn && !t.cfg.DisableRHS {
		if h, ok := t.rhsPop(); ok {
			// Restore the pre-call history, then fold in the
			// returning trace so the post-return path is distinct.
			t.hist = h<<histBits ^ uint64(id.Hash())
		}
	}
	t.n++
}

func (t *Tables) rhsPush(h uint64) {
	t.rhs[t.rhsTop] = h
	t.rhsTop = (t.rhsTop + 1) % len(t.rhs)
	if t.rhsSize < len(t.rhs) {
		t.rhsSize++
	}
}

func (t *Tables) rhsPop() (uint64, bool) {
	if t.rhsSize == 0 {
		return 0, false
	}
	t.rhsTop = (t.rhsTop - 1 + len(t.rhs)) % len(t.rhs)
	t.rhsSize--
	return t.rhs[t.rhsTop], true
}

// Stats returns a copy of the counters.
func (p *Predictor) Stats() Stats { return p.stats }
