// Package cupid reimplements the Cupid matcher (Madhavan, Bernstein & Rahm,
// VLDB 2001) adapted to denormalized tables, as in the paper.
//
// Schemata become two-level trees (table root, column leaves). Element
// similarity is the weighted sum of linguistic similarity — thesaurus-aided
// token matching, WordNet replaced by the embedded schema-domain thesaurus
// (see DESIGN.md §4) — and structural similarity, which for leaves combines
// data-type compatibility with the context contributed by the root and
// siblings. wsim = w_struct·ssim + (1−w_struct)·lsim, with the leaf
// structural weight (leaf_w_struct) and accept threshold (th_accept) from
// Table II.
//
// Linguistic similarity runs on one token table per call (tokens.go): each
// distinct name token of a side — column and table names alike — is
// prepared once (stem, thesaurus synsets, packed trigram keys), tokenSim of
// every source × target token pair is evaluated once, and every linguistic
// value is then a sum of table entries in token-list order, so scores are
// bit-identical to evaluating each token pair from its strings
// (TestTokenTableMatchesRef). The score bound reads the same table.
// Nothing in it outlives the call.
package cupid

import (
	"context"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/planner"
	"valentine/internal/profile"
	"valentine/internal/table"
	"valentine/internal/wordnet"
)

// Matcher is a configured Cupid instance.
type Matcher struct {
	LeafWStruct float64 // structural weight at leaf level (Table II: 0–0.6)
	WStruct     float64 // structural weight when combining (Table II: 0–0.6)
	ThAccept    float64 // accept threshold (Table II: 0.3–0.8)
	ThHigh      float64 // strong-link threshold for the structural pass
	Thesaurus   *wordnet.Thesaurus
}

// New builds Cupid from params: "leaf_w_struct" (default 0.2), "w_struct"
// (default 0.2), "th_accept" (default 0.3), "th_high" (default 0.6).
func New(p core.Params) (core.Matcher, error) {
	return &Matcher{
		LeafWStruct: p.Float("leaf_w_struct", 0.2),
		WStruct:     p.Float("w_struct", 0.2),
		ThAccept:    p.Float("th_accept", 0.3),
		ThHigh:      p.Float("th_high", 0.6),
		Thesaurus:   wordnet.Default(),
	}, nil
}

// Compile-time checks: the one core contract plus the optional planner hooks.
var (
	_ core.Matcher      = (*Matcher)(nil)
	_ core.ScoreBounder = (*Matcher)(nil)
)

// Name implements core.Matcher.
func (m *Matcher) Name() string { return "cupid" }

// Match implements core.Matcher. Column- and table-name tokens come from the
// profiles' caches. Pass 1 builds the call's token table — every source ×
// target name-token similarity, one source token a row on the engine pool —
// and from it the linguistic and leaf structural matrices, one source column
// a row; pass 2 is a cheap sequential reduction over the matrices; the final
// wsim emission runs through the engine's pair scorer.
func (m *Matcher) Match(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	source, target := sp.Table(), tp.Table()

	// Pass 1: linguistic similarity and leaf structural similarity. Each
	// row depends only on its own source token or column.
	nSrc, nTgt := len(source.Columns), len(target.Columns)
	lsim := make([][]float64, nSrc)
	leafS := make([][]float64, nSrc)
	stats := engine.StatsFrom(ctx)
	workers := engine.OptionsFrom(ctx).Workers()
	var genErr error
	stats.Timed(engine.StageGenerate, func() {
		tt := newTokenTable(m.thesaurus(), nameTokens(sp), nameTokens(tp))
		if genErr = engine.Map(ctx, workers, len(tt.src.tokens), func(x int) error {
			tt.fillRow(x)
			return nil
		}); genErr != nil {
			return
		}
		rootLing := tt.linguistic(tt.src.names[0], tt.tgt.names[0])
		genErr = engine.Map(ctx, workers, nSrc, func(i int) error {
			lsim[i] = make([]float64, nTgt)
			leafS[i] = make([]float64, nTgt)
			for j := range target.Columns {
				lsim[i][j] = tt.linguistic(tt.src.names[1+i], tt.tgt.names[1+j])
				// Leaf structural signal: data-type compatibility blended with
				// the linguistic similarity of the ancestors (the roots).
				leafS[i][j] = 0.5*typeCompat(source.Columns[i].Type, target.Columns[j].Type) + 0.5*rootLing
			}
			return nil
		})
	})
	if genErr != nil {
		return nil, genErr
	}

	// Pass 2: the mutually-recursive structural refinement, one round as in
	// the original tree walk: root structural similarity is the fraction of
	// strongly-linked leaf pairs, which then feeds back into leaf ssim.
	strong, total := 0, 0
	for i := 0; i < nSrc; i++ {
		for j := 0; j < nTgt; j++ {
			w := m.LeafWStruct*leafS[i][j] + (1-m.LeafWStruct)*lsim[i][j]
			if w >= m.ThHigh {
				strong++
			}
			total++
		}
	}
	rootStruct := 0.0
	if total > 0 {
		rootStruct = float64(strong) / float64(total)
	}

	return planner.ScorePairs(ctx, sp, tp, 0, "", nil, func(i, j int) (float64, bool) {
		ssim := 0.7*leafS[i][j] + 0.3*rootStruct
		wsim := m.WStruct*ssim + (1-m.WStruct)*lsim[i][j]
		return wsim, wsim >= m.ThAccept
	})
}

// thesaurus is the configured thesaurus, or the embedded default.
func (m *Matcher) thesaurus() *wordnet.Thesaurus {
	if m.Thesaurus != nil {
		return m.Thesaurus
	}
	return wordnet.Default()
}

// nameTokens lists a table's name tokens, then each column's, from the
// profile's caches.
func nameTokens(tp *profile.TableProfile) [][]string {
	out := make([][]string, 1+tp.NumColumns())
	out[0] = tp.NameTokens()
	for i := range tp.NumColumns() {
		out[1+i] = tp.Column(i).NameTokens()
	}
	return out
}

// typeCompat is Cupid's data-type compatibility score.
func typeCompat(a, b table.Type) float64 {
	switch {
	case a == b:
		return 1
	case (a == table.Int || a == table.Float) && (b == table.Int || b == table.Float):
		return 0.9
	case a.Compatible(b):
		return 0.5
	default:
		return 0.2
	}
}
