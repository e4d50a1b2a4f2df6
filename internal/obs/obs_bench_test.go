package obs

import "testing"

// countTracer is the cheapest possible live member, isolating the
// fan-out dispatch cost from any member's own work.
type countTracer struct{ n int64 }

func (c *countTracer) Enabled() bool { return true }
func (c *countTracer) Emit(Event)    { c.n++ }

// BenchmarkMultiEmit measures the per-event cost of fanning one event
// out to k members through a Combine-built tracer. Since Combine
// caches liveness at build time, Emit is a straight loop over the
// members with no per-event Enabled() calls.
func BenchmarkMultiEmit(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		members := make([]Tracer, k)
		for i := range members {
			members[i] = &countTracer{}
		}
		tr := Combine(members...)
		b.Run(string(rune('0'+k))+"-members", func(b *testing.B) {
			e := Event{Type: EvMBFS, Expanded: 10, Levels: 2}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.Emit(e)
			}
		})
	}
}
