package embdi

// MatchCostHint implements core.Coster: measured average per-pair runtime
// in microseconds — the traced matchers.embdi.mean_ms of bench's match-grid
// workload (165 ms, seed 71, 2 cores; 452 ms with the word2vec trainer this
// one replaced) — used by the ensemble cascade to run members
// cheapest-first. Still ten times the next matcher. Only the relative order
// matters; TestCostHintOrder pins it.
func (m *Matcher) MatchCostHint() float64 { return 165000 }
