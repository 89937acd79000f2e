package valentine_test

import (
	"context"
	"fmt"

	"valentine"
)

// ExampleNewMatcher demonstrates the minimal matching workflow: fabricate a
// problem and rank correspondences.
func ExampleNewMatcher() {
	source := valentine.TPCDI(valentine.DatasetOptions{Rows: 80, Seed: 1})
	pair, err := valentine.NewFabricator(1).Joinable(source, 0.5, 1.0, false)
	if err != nil {
		panic(err)
	}
	m, err := valentine.NewMatcher(valentine.MethodComaSchema, nil)
	if err != nil {
		panic(err)
	}
	matches, err := valentine.MatchWithContext(context.Background(), m, pair.Source, pair.Target, valentine.EngineOptions{})
	if err != nil {
		panic(err)
	}
	recall, err := valentine.RecallAtGT(matches, pair.Truth)
	if err != nil {
		panic(err)
	}
	fmt.Printf("recall@GT = %.1f\n", recall)
	// Output: recall@GT = 1.0
}

// ExampleMethods lists the implemented matching methods in the paper's
// reporting order.
func ExampleMethods() {
	for _, m := range valentine.Methods() {
		fmt.Println(m)
	}
	// Output:
	// cupid
	// similarity-flooding
	// coma-schema
	// coma-instance
	// distribution-based
	// semprop
	// embdi
	// jaccard-levenshtein
}

// ExampleFabricator_Unionable shows the fabricator emitting ground truth
// that tracks schema noise.
func ExampleFabricator_Unionable() {
	source := valentine.ChEMBL(valentine.DatasetOptions{Rows: 40, Seed: 2})
	pair, err := valentine.NewFabricator(2).Unionable(source, 1.0, valentine.Variant{NoisySchema: true})
	if err != nil {
		panic(err)
	}
	fmt.Println(pair.Scenario, pair.Truth.Size())
	// Output: unionable 15
}
