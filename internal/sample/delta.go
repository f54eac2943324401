package sample

import (
	"reflect"

	"tracepre/internal/pipeline"
)

// The simulator's counters run monotonically through every phase; the
// sampling layer recovers a measurement unit's own activity by
// differencing two Snapshots taken at the unit's boundaries. One
// structural rule covers the whole Result tree, nested component stats
// included: uint64 fields are monotonic counters and subtract; every
// other field (floats, ints, strings) is a gauge or label and keeps its
// end-of-unit value. The repo's stats structs follow that convention —
// counters are uint64, point-in-time gauges are int/int64/float64
// (trace.StoreStats.SlabBytes, Result.AdaptivePBShare) — so new counters
// added to any component are interval-correct with no change here.

// deltaResult returns end minus start, counter-wise. The Windows slice
// is dropped: windows are positional within the whole run and have no
// per-interval meaning.
func deltaResult(end, start pipeline.Result) pipeline.Result {
	out := end
	subCounters(reflect.ValueOf(&out).Elem(), reflect.ValueOf(start))
	out.Windows = nil
	return out
}

// addResult accumulates delta into agg, counter-wise; gauges take the
// delta's (i.e. the most recent unit's) value.
func addResult(agg, delta pipeline.Result) pipeline.Result {
	out := delta
	addCounters(reflect.ValueOf(&out).Elem(), reflect.ValueOf(agg))
	out.Windows = nil
	return out
}

func subCounters(d, s reflect.Value) {
	switch d.Kind() {
	case reflect.Uint64:
		if d.CanSet() {
			d.SetUint(d.Uint() - s.Uint())
		}
	case reflect.Struct:
		for i := 0; i < d.NumField(); i++ {
			subCounters(d.Field(i), s.Field(i))
		}
	case reflect.Slice:
		cloneSlice(d)
		n := d.Len()
		if s.Len() < n {
			n = s.Len()
		}
		for i := 0; i < n; i++ {
			subCounters(d.Index(i), s.Index(i))
		}
	}
}

// cloneSlice replaces d's backing array with a private copy: the walk
// starts from a shallow struct copy, so without this the element
// updates would write through into the caller's snapshot.
func cloneSlice(d reflect.Value) {
	if !d.CanSet() || d.Len() == 0 {
		return
	}
	c := reflect.MakeSlice(d.Type(), d.Len(), d.Len())
	reflect.Copy(c, d)
	d.Set(c)
}

func addCounters(d, s reflect.Value) {
	switch d.Kind() {
	case reflect.Uint64:
		if d.CanSet() {
			d.SetUint(d.Uint() + s.Uint())
		}
	case reflect.Struct:
		for i := 0; i < d.NumField(); i++ {
			addCounters(d.Field(i), s.Field(i))
		}
	case reflect.Slice:
		cloneSlice(d)
		n := d.Len()
		if s.Len() < n {
			n = s.Len()
		}
		for i := 0; i < n; i++ {
			addCounters(d.Index(i), s.Index(i))
		}
	}
}
