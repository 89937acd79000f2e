package cupid

// MatchCostHint implements core.Coster: measured average per-pair runtime
// in microseconds — the traced matchers.cupid.mean_ms of bench's match-grid
// workload, 0.18/0.15/0.16 ms on seeds 41/42/43 (2 cores) with the per-call
// token table; it was 7.6/5.0/5.6 ms on the same seeds before. On the same
// 24 pairs per seed, timed the same way, lsh-value-overlap (which
// match-grid does not trace) took 0.27/0.21/0.19 ms and cupid
// 0.16/0.15/0.14 ms: cupid is now the cheapest member every time, so its
// hint sits below lshmatch's 1000. Only the relative order matters;
// TestCostHintOrder pins it.
func (m *Matcher) MatchCostHint() float64 { return 200 }
