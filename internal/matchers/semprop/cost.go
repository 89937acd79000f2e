package semprop

// MatchCostHint implements core.Coster: measured average per-pair runtime
// in microseconds — the traced matchers.semprop.mean_ms of bench's
// match-grid workload (3.40 ms, seed 71, 2 cores) — used by the ensemble
// cascade to run members cheapest-first. Only the relative order matters;
// TestCostHintOrder pins it.
func (m *Matcher) MatchCostHint() float64 { return 3400 }
