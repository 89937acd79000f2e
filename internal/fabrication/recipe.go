package fabrication

// Recipe is a declarative handle on one cell of the Figure-3 fabrication
// grid: a scenario kind plus its overlap parameters and noise variant. It
// lets grid-driven callers (the benchmark's lake, the fidelity fixtures)
// name fabrication work as data instead of code; the programmatic
// Unionable/ViewUnionable/Joinable/SemanticallyJoinable methods stay the
// primary API.

import (
	"fmt"

	"valentine/internal/core"
	"valentine/internal/table"
)

// Recipe names one fabrication of the grid.
type Recipe struct {
	// Kind is one of the paper's four scenarios: core.ScenarioUnionable,
	// ScenarioViewUnionable, ScenarioJoinable, ScenarioSemJoinable.
	Kind string
	// RowOverlap is the horizontal-split overlap fraction in [0,1]
	// (unionable and the joinable kinds).
	RowOverlap float64
	// ColOverlap is the vertical-split overlap fraction (view-unionable:
	// (0,1]; joinable kinds: (0,1], or negative for "exactly one shared
	// column").
	ColOverlap float64
	// Variant is the schema/instance noise grade. The semantically-joinable
	// kind implies noisy instances regardless of Variant.NoisyInstances.
	Variant Variant
}

// RecipeKinds lists the valid Recipe.Kind values in paper order.
func RecipeKinds() []string {
	return []string{
		core.ScenarioUnionable,
		core.ScenarioViewUnionable,
		core.ScenarioJoinable,
		core.ScenarioSemJoinable,
	}
}

// Validate checks the recipe's kind and parameter ranges without touching
// any table, so config-driven callers can fail before fabricating anything.
func (r Recipe) Validate() error {
	switch r.Kind {
	case core.ScenarioUnionable:
		if r.RowOverlap < 0 || r.RowOverlap > 1 {
			return fmt.Errorf("fabrication: %s row overlap %v out of [0,1]", r.Kind, r.RowOverlap)
		}
	case core.ScenarioViewUnionable:
		if r.ColOverlap <= 0 || r.ColOverlap > 1 {
			return fmt.Errorf("fabrication: %s column overlap %v out of (0,1]", r.Kind, r.ColOverlap)
		}
	case core.ScenarioJoinable, core.ScenarioSemJoinable:
		if r.ColOverlap > 1 {
			return fmt.Errorf("fabrication: %s column overlap %v out of range (≤ 1, negative = one shared column)", r.Kind, r.ColOverlap)
		}
		if r.RowOverlap < 0 || r.RowOverlap > 1 {
			return fmt.Errorf("fabrication: %s row overlap %v out of [0,1]", r.Kind, r.RowOverlap)
		}
	default:
		return fmt.Errorf("fabrication: unknown recipe kind %q (have %v)", r.Kind, RecipeKinds())
	}
	return nil
}

// Fabricate dispatches the recipe to the matching fabrication method.
func (f *Fabricator) Fabricate(src *table.Table, r Recipe) (core.TablePair, error) {
	if err := r.Validate(); err != nil {
		return core.TablePair{}, err
	}
	switch r.Kind {
	case core.ScenarioUnionable:
		return f.Unionable(src, r.RowOverlap, r.Variant)
	case core.ScenarioViewUnionable:
		return f.ViewUnionable(src, r.ColOverlap, r.Variant)
	case core.ScenarioJoinable:
		if r.Variant.NoisyInstances {
			// Joinable with noisy instances IS the semantically-joinable
			// scenario; keep the pair labeled by what it is.
			return f.SemanticallyJoinable(src, r.ColOverlap, r.RowOverlap, r.Variant.NoisySchema)
		}
		return f.Joinable(src, r.ColOverlap, r.RowOverlap, r.Variant.NoisySchema)
	default: // core.ScenarioSemJoinable, per Validate
		return f.SemanticallyJoinable(src, r.ColOverlap, r.RowOverlap, r.Variant.NoisySchema)
	}
}
