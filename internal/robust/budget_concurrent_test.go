package robust

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestBudgetConcurrentChargers hammers one budget from many goroutines
// (run under -race in CI): accounting must stay exact until the trip,
// the trip must be sticky, and every charger must observe the same
// cause once tripped.
func TestBudgetConcurrentChargers(t *testing.T) {
	const (
		chargers = 8
		perG     = 5000
		total    = 20000 // trips partway through the combined charge load
	)
	b := NewBudget(context.Background(), Limits{TotalExpansions: total})
	errs := make([]error, chargers)
	var wg sync.WaitGroup
	for i := 0; i < chargers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				if err := b.Charge(1); err != nil {
					errs[slot] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	tripped := 0
	for _, err := range errs {
		if err == nil {
			continue
		}
		tripped++
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("charger error = %v, want ErrBudgetExhausted", err)
		}
	}
	if tripped == 0 {
		t.Fatalf("no charger tripped despite %d charges against a cap of %d", chargers*perG, total)
	}
	if err := b.Err(); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Err() = %v, want sticky ErrBudgetExhausted", err)
	}
	// Every successful charge was counted; the crossing charges may
	// overshoot by at most one unit per concurrent charger.
	if used := b.Used(); used < total || used > total+chargers {
		t.Fatalf("Used() = %d, want within [%d, %d]", used, total, total+chargers)
	}
}
