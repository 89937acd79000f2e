// Unionsearch: table-union search over open-data-style shards (the
// Nargesian et al. scenario the paper's view-unionable case models).
// Shards of a civic dataset are fabricated with differing schema
// conventions; schema-based and instance-based matchers are compared on
// ranking the shards' columns against a reference table.
//
//	go run ./examples/unionsearch
package main

import (
	"context"
	"fmt"
	"log"

	"valentine"
)

func main() {
	source := valentine.OpenData(valentine.DatasetOptions{Rows: 160, Seed: 9})
	fab := valentine.NewFabricator(21)

	// Three shards with increasing difficulty.
	type shard struct {
		name string
		pair valentine.TablePair
	}
	var shards []shard
	mk := func(name string, v valentine.Variant) {
		p, err := fab.ViewUnionable(source, 0.5, v)
		if err != nil {
			log.Fatal(err)
		}
		p.Target.Name = name
		shards = append(shards, shard{name, p})
	}
	mk("shard_verbatim", valentine.Variant{})
	mk("shard_renamed", valentine.Variant{NoisySchema: true})
	mk("shard_renamed_noisy", valentine.Variant{NoisySchema: true, NoisyInstances: true})

	methods := []string{
		valentine.MethodComaSchema,   // schema-based
		valentine.MethodComaInstance, // instance-augmented
		valentine.MethodJaccardLev,   // instance-only baseline
	}

	fmt.Println("union search: recall@GT of shard-column rankings")
	fmt.Printf("%-24s", "shard")
	for _, m := range methods {
		fmt.Printf(" %-20s", m)
	}
	fmt.Println()
	for _, s := range shards {
		fmt.Printf("%-24s", s.name)
		for _, method := range methods {
			m, err := valentine.NewMatcher(method, nil)
			if err != nil {
				log.Fatal(err)
			}
			matches, err := valentine.MatchWithContext(context.Background(), m, s.pair.Source, s.pair.Target, valentine.EngineOptions{})
			if err != nil {
				log.Fatal(err)
			}
			recall, err := valentine.RecallAtGT(matches, s.pair.Truth)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %-20.3f", recall)
		}
		fmt.Println()
	}
	fmt.Println("\nExpected shape (paper §VII): schema methods ace verbatim shards and")
	fmt.Println("degrade once columns are renamed; the view-unionable zero-row-overlap")
	fmt.Println("setting is the hardest case for instance-based methods.")
}
