// Package core defines the matcher abstraction at the heart of Valentine:
// a matcher consumes a pair of profiled tables and emits a ranked list of
// column correspondences through its one method, Match. The pair handed to
// Match interns its values into one dictionary (ValidatePair), so every
// value-overlap kernel compares ids from one id space;
// MatchProfilesWithContext re-pairs any other pair before dispatch.
// Scheduling hooks are optional: ScoreBounder feeds the planner's
// discovery re-rank, and MatchTopK always runs a CascadeMatcher's own
// cascade (there is no switch to bypass it); a matcher that implements
// neither is still served everywhere, conservatively. The
// package also carries the ground-truth representation produced by the
// fabricator and the capability taxonomy of Table I of the paper.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"valentine/internal/profile"
	"valentine/internal/table"
)

// Match is one scored column correspondence. Higher scores rank earlier.
type Match struct {
	SourceTable  string
	SourceColumn string
	TargetTable  string
	TargetColumn string
	Score        float64
}

// String renders the match for logs and CLI output.
func (m Match) String() string {
	return fmt.Sprintf("%s.%s ~ %s.%s (%.4f)",
		m.SourceTable, m.SourceColumn, m.TargetTable, m.TargetColumn, m.Score)
}

// Matcher is a schema matching method adapted to dataset discovery: it
// returns a ranked list of matches rather than a 1-1 assignment.
type Matcher interface {
	// Name identifies the method (e.g. "coma-schema").
	Name() string
	// Match ranks column correspondences between the profiled source and
	// target tables, which must intern into one value dictionary
	// (ValidatePair). Derived per-column data comes from the profiles' lazy
	// caches, so one warmed profile.Store serves every matcher on a corpus;
	// ctx carries deadlines and cancellation, honored mid-scoring, and the
	// engine's parallelism and stats collector (internal/engine), which
	// change how the work executes, never what it computes. Callers holding
	// tables go through MatchWithContext.
	Match(ctx context.Context, source, target *profile.TableProfile) ([]Match, error)
}

// ValidatePair validates both profiled tables and checks the contract's
// precondition that they intern into one value dictionary — the shared
// preamble of every Match implementation. Ids from two dictionaries never
// mean the same value, so a pair that breaks the precondition is rejected
// rather than scored.
func ValidatePair(source, target *profile.TableProfile) error {
	if err := source.Table().Validate(); err != nil {
		return err
	}
	if err := target.Table().Validate(); err != nil {
		return err
	}
	if d := source.Dict(); d == nil || d != target.Dict() {
		return fmt.Errorf("core: tables %q and %q do not intern into one value dictionary: profile them with profile.NewPair or one profile.Store", source.Name(), target.Name())
	}
	return nil
}

// SortMatches orders matches by descending score, breaking ties
// deterministically by column names so runs are reproducible.
func SortMatches(ms []Match) {
	slices.SortStableFunc(ms, func(a, b Match) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.Score != b.Score: // a NaN: unordered
			return 0
		}
		if c := strings.Compare(a.SourceColumn, b.SourceColumn); c != 0 {
			return c
		}
		return strings.Compare(a.TargetColumn, b.TargetColumn)
	})
}

// ColumnPair identifies a source/target column correspondence by name.
type ColumnPair struct {
	Source string
	Target string
}

// GroundTruth is the set of correct correspondences for a table pair.
type GroundTruth struct {
	pairs map[ColumnPair]struct{}
}

// NewGroundTruth builds a ground truth from pairs.
func NewGroundTruth(pairs ...ColumnPair) *GroundTruth {
	gt := &GroundTruth{pairs: make(map[ColumnPair]struct{}, len(pairs))}
	for _, p := range pairs {
		gt.pairs[p] = struct{}{}
	}
	return gt
}

// Add inserts a correspondence.
func (gt *GroundTruth) Add(source, target string) {
	if gt.pairs == nil {
		gt.pairs = make(map[ColumnPair]struct{})
	}
	gt.pairs[ColumnPair{Source: source, Target: target}] = struct{}{}
}

// Contains reports whether (source,target) is a correct correspondence.
func (gt *GroundTruth) Contains(source, target string) bool {
	if gt == nil || gt.pairs == nil {
		return false
	}
	_, ok := gt.pairs[ColumnPair{Source: source, Target: target}]
	return ok
}

// Size returns the number of correct correspondences.
func (gt *GroundTruth) Size() int {
	if gt == nil {
		return 0
	}
	return len(gt.pairs)
}

// Pairs returns the correspondences sorted for deterministic iteration.
func (gt *GroundTruth) Pairs() []ColumnPair {
	if gt == nil {
		return nil
	}
	out := make([]ColumnPair, 0, len(gt.pairs))
	for p := range gt.pairs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// TablePair is a fabricated or curated matching problem: two tables plus
// the correspondences a matcher should recover.
type TablePair struct {
	Name     string
	Source   *table.Table
	Target   *table.Table
	Truth    *GroundTruth
	Scenario string // one of the Scenario* constants, or "curated"
	Variant  string // e.g. "NS/VI 50%"
}

// Relatedness scenario names (paper §III).
const (
	ScenarioUnionable     = "unionable"
	ScenarioViewUnionable = "view-unionable"
	ScenarioJoinable      = "joinable"
	ScenarioSemJoinable   = "semantically-joinable"
	ScenarioCurated       = "curated"
)

// Scenarios lists the four fabricated relatedness scenarios in paper order.
func Scenarios() []string {
	return []string{ScenarioUnionable, ScenarioViewUnionable, ScenarioJoinable, ScenarioSemJoinable}
}
