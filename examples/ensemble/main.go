// Ensemble: the paper's headline lesson is "one size does not fit all" —
// no single matcher wins every scenario, and composing methods (as COMA
// does internally) is the recommended way forward. This example fabricates
// one pair per relatedness scenario and compares individual matchers
// against a schema+instance+embeddings ensemble.
//
//	go run ./examples/ensemble
package main

import (
	"context"
	"fmt"
	"log"

	"valentine"
)

func main() {
	source := valentine.TPCDI(valentine.DatasetOptions{Rows: 150, Seed: 13})
	fab := valentine.NewFabricator(31)

	noisy := valentine.Variant{NoisySchema: true, NoisyInstances: true}
	pairs := map[string]valentine.TablePair{}
	var err error
	if pairs["unionable"], err = fab.Unionable(source, 0.5, noisy); err != nil {
		log.Fatal(err)
	}
	if pairs["view-unionable"], err = fab.ViewUnionable(source, 0.5, noisy); err != nil {
		log.Fatal(err)
	}
	if pairs["joinable"], err = fab.Joinable(source, 0.5, 1.0, true); err != nil {
		log.Fatal(err)
	}
	if pairs["semantically-joinable"], err = fab.SemanticallyJoinable(source, 0.5, 1.0, true); err != nil {
		log.Fatal(err)
	}

	members := []string{
		valentine.MethodComaSchema,
		valentine.MethodDistribution,
		valentine.MethodJaccardLev,
	}
	ens, err := valentine.NewEnsemble(members, valentine.Params{"fusion": "rrf"})
	if err != nil {
		log.Fatal(err)
	}

	contenders := make(map[string]valentine.Matcher)
	for _, name := range members {
		m, err := valentine.NewMatcher(name, nil)
		if err != nil {
			log.Fatal(err)
		}
		contenders[name] = m
	}
	contenders["ensemble(rrf)"] = ens

	order := append(append([]string{}, members...), "ensemble(rrf)")
	fmt.Println("recall@GT per scenario (noisy schema + noisy instances):")
	fmt.Printf("%-22s", "method")
	scenarios := []string{"unionable", "view-unionable", "joinable", "semantically-joinable"}
	for _, s := range scenarios {
		fmt.Printf(" %-22s", s)
	}
	fmt.Println()
	for _, name := range order {
		fmt.Printf("%-22s", name)
		for _, s := range scenarios {
			p := pairs[s]
			matches, err := valentine.MatchWithContext(context.Background(), contenders[name], p.Source, p.Target, valentine.EngineOptions{})
			if err != nil {
				log.Fatal(err)
			}
			r, err := valentine.RecallAtGT(matches, p.Truth)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %-22.3f", r)
		}
		fmt.Println()
	}
	fmt.Println("\nThe ensemble should track the best member per scenario rather")
	fmt.Println("than any single method's weaknesses.")
}
