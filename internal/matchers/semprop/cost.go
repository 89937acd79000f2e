package semprop

// MatchCostHint implements core.Coster: measured average per-pair runtime
// in microseconds — the traced matchers.semprop.mean_ms of bench's
// match-grid workload, 1.71/1.33/1.52 ms on seeds 41/42/43 (2 cores) with
// the hop-table ontology and the per-call word table; it was
// 4.15/2.98/3.21 ms on the same seeds before. The same three runs read
// similarity-flooding at 1.35/1.26/1.20, coma-instance at 1.84/1.44/1.66 and
// jaccard-levenshtein at 3.74/2.74/3.15 ms: above similarity-flooding and
// below jaccard-levenshtein every time, level with coma-instance within the
// scatter between runs, so the hint sits just above similarity-flooding's
// 1800 — a tie must not flip the order members run in. Only the relative
// order matters; TestCostHintOrder pins it.
func (m *Matcher) MatchCostHint() float64 { return 1900 }
