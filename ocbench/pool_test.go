package main

import (
	"bytes"
	"os"
	"testing"

	"overcell/internal/gen"
)

// TestPoolsRoute routes every pool candidate with its workload's flows:
// a candidate outside poolExcluded must route, so no seed's draws fail.
// It takes a few minutes, so it runs only with OCBENCH_POOLS=1.
func TestPoolsRoute(t *testing.T) {
	if os.Getenv("OCBENCH_POOLS") != "1" {
		t.Skip("set OCBENCH_POOLS=1 to route every pool candidate")
	}
	for _, w := range workloadOrder {
		s := specs[w]
		for _, d := range s.draws {
			key := w + "/" + d.shape
			for _, g := range candidates(key, d.shape) {
				inst, err := gen.Generate(shapeParams(d.shape, g))
				if err != nil {
					t.Fatalf("%s %d: %v", key, g, err)
				}
				var buf bytes.Buffer
				if err := inst.WriteJSON(&buf); err != nil {
					t.Fatalf("%s %d: %v", key, g, err)
				}
				in := instance{name: inst.Name, json: buf.Bytes()}
				failed := ""
				for _, f := range s.flows {
					if _, _, _, err := flowRun(in, f); err != nil {
						failed = f + ": " + err.Error()
						break
					}
				}
				why, excluded := poolExcluded[key][g]
				switch {
				case failed != "" && !excluded:
					t.Errorf("%q: {%d: %q}, not in poolExcluded", key, g, failed)
				case failed == "" && excluded:
					t.Logf("%s %d routes now (excluded for %q)", key, g, why)
				}
			}
		}
	}
}
