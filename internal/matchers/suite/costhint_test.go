package suite

import (
	"testing"

	"valentine/internal/core"
	"valentine/internal/experiment"
)

// TestCostHintOrder pins the relative order of the nine matchers' cost
// hints. The values are re-measured now and then; the order decides which
// ensemble member a cascade refines first, and with it which candidates a
// cutoff prunes, so it may only change on purpose.
func TestCostHintOrder(t *testing.T) {
	cheapestFirst := []string{
		// The per-call token table and the thesaurus hop table (5.0–7.6 →
		// 0.15–0.18 ms a pair; traced seeds 41/42/43) moved cupid here from
		// between semprop and embdi: below lsh-value-overlap, timed on the
		// same pairs, in all three runs.
		experiment.MethodCupid,
		experiment.MethodLSH,
		experiment.MethodComaSchema,
		// PR 24 (consolidation as an assignment search, 18.9 → 1.05–1.35 ms
		// a pair) moved distribution-based here from between
		// jaccard-levenshtein and embdi.
		experiment.MethodDistribution,
		experiment.MethodComaInstance,
		experiment.MethodSimFlood,
		// The ontology hop table and the per-call word table (3.0–4.2 →
		// 1.3–1.7 ms a pair; traced seeds 41/42/43) moved semprop here from
		// above jaccard-levenshtein: above similarity-flooding in all three
		// runs, level with coma-instance, so it keeps its place above that.
		experiment.MethodSemProp,
		// Prepared values and the symbol-class mask (18.0 → 2.4–2.8 ms a
		// pair; traced seeds 11/12/13) moved jaccard-levenshtein here from
		// between cupid and embdi.
		experiment.MethodJaccardLev,
		experiment.MethodEmbDI,
	}
	reg := experiment.NewRegistry()
	if got := len(reg.Names()); got != len(cheapestFirst) {
		t.Fatalf("%d registered methods, %d in the pinned order", got, len(cheapestFirst))
	}
	prev := 0.0
	for i, name := range cheapestFirst {
		m, err := reg.New(name, nil)
		if err != nil {
			t.Fatalf("instantiating %s: %v", name, err)
		}
		if _, ok := m.(core.Coster); !ok {
			t.Fatalf("%s has no cost hint", name)
		}
		cost := core.MatchCost(m)
		if cost <= prev {
			t.Fatalf("%s costs %v, not above %s at %v", name, cost, cheapestFirst[i-1], prev)
		}
		prev = cost
	}
}
