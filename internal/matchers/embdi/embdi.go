// Package embdi reimplements the EmbDI matcher (Cappuzzo, Papotti &
// Thirumuruganathan, SIGMOD 2020): relational embeddings are trained
// locally — no pre-trained vectors — by random walks over a tripartite
// graph of value tokens, row ids and column ids built from both input
// tables; equal cell values bridge the two tables' subgraphs. Columns are
// then matched by the cosine similarity of their column-id embeddings.
//
// Table II's configuration (word2vec, sentence length 60, window 3, 300
// dimensions) is honoured as parameter defaults scaled down for CI speed;
// pass the paper's values through Params to reproduce them exactly.
package embdi

import (
	"context"
	"math/rand"
	"strconv"
	"strings"

	"valentine/internal/core"
	"valentine/internal/embedding"
	"valentine/internal/engine"
	"valentine/internal/planner"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// Matcher is a configured EmbDI instance.
type Matcher struct {
	SentenceLength int   // random-walk length (paper: 60; default 20)
	Window         int   // word2vec window (paper: 3)
	Dimensions     int   // embedding size (paper: 300; default 48)
	WalksPerNode   int   // walks started per graph node (default 8)
	Epochs         int   // word2vec epochs (default 3)
	Seed           int64 // RNG seed (default 1)
	MaxRows        int   // row cap per table for graph construction (default 400)
	// Flatten splits multi-word cell values into one token node per word
	// (EmbDI's "flatten" preprocessing); without it each cell value is one
	// token node.
	Flatten bool
}

// New builds EmbDI from params: "sentence_length", "window", "n_dimensions",
// "walks_per_node", "epochs", "seed", "max_rows", "flatten" (0/1).
func New(p core.Params) (core.Matcher, error) {
	return &Matcher{
		SentenceLength: p.Int("sentence_length", 20),
		Window:         p.Int("window", 3),
		Dimensions:     p.Int("n_dimensions", 48),
		WalksPerNode:   p.Int("walks_per_node", 8),
		Epochs:         p.Int("epochs", 3),
		Seed:           int64(p.Int("seed", 1)),
		MaxRows:        p.Int("max_rows", 400),
		Flatten:        p.Int("flatten", 0) != 0,
	}, nil
}

// Compile-time checks: the one core contract plus the optional planner hooks.
var (
	_ core.Matcher      = (*Matcher)(nil)
	_ core.ScoreBounder = (*Matcher)(nil)
)

// Name implements core.Matcher.
func (m *Matcher) Name() string { return "embdi" }

// tripartite holds the walk graph over both tables.
type tripartite struct {
	// node namespaces: values are raw strings prefixed "tt$"; rows
	// "idx$<t>$<i>"; columns "cid$<t>$<name>".
	valueNeighbors map[string][]string // value token → rid/cid nodes
	rowValues      map[string][]string // rid → value tokens
	colValues      map[string][]string // cid → value tokens
	cids           []string            // all column nodes in insertion order
	rids           []string
	// bridged reports whether any value token touches more than one input
	// table. Without a bridge the tables' subgraphs are disconnected: no
	// walk crosses tables, so cross-table similarities would be untrained
	// noise — the matcher skips training entirely and scores the neutral
	// 0.5 (cosine 0).
	bridged bool
}

const (
	valPrefix = "tt$"
	ridPrefix = "idx$"
	cidPrefix = "cid$"
)

// cidNode keys a column by table position, not table name, so identically
// named input tables cannot collide.
func cidNode(tableIdx int, col string) string {
	return cidPrefix + strconv.Itoa(tableIdx) + "$" + col
}

func buildGraph(tables []*table.Table, maxRows int, flatten bool) *tripartite {
	g := &tripartite{
		valueNeighbors: make(map[string][]string),
		rowValues:      make(map[string][]string),
		colValues:      make(map[string][]string),
	}
	tokenTables := make(map[string]uint32) // value token → bitmask of table indices
	for ti, t := range tables {
		rows := t.NumRows()
		if maxRows > 0 && rows > maxRows {
			rows = maxRows
		}
		tid := strconv.Itoa(ti)
		for ci := range t.Columns {
			c := &t.Columns[ci]
			cid := cidNode(ti, c.Name)
			g.cids = append(g.cids, cid)
			for ri := 0; ri < rows; ri++ {
				v := c.Values[ri]
				if v == "" {
					continue
				}
				rid := ridPrefix + tid + "$" + strconv.Itoa(ri)
				for _, tok := range cellTokens(v, flatten) {
					val := valPrefix + tok
					g.valueNeighbors[val] = append(g.valueNeighbors[val], rid, cid)
					g.rowValues[rid] = append(g.rowValues[rid], val)
					g.colValues[cid] = append(g.colValues[cid], val)
					mask := tokenTables[val] | 1<<uint(ti)
					tokenTables[val] = mask
					if mask&(mask-1) != 0 {
						g.bridged = true
					}
				}
			}
		}
		for ri := 0; ri < rows; ri++ {
			g.rids = append(g.rids, ridPrefix+tid+"$"+strconv.Itoa(ri))
		}
	}
	return g
}

// cellTokens yields one token per cell, or the cell's whitespace-split
// words when flattening (so "Elvis Aaron Presley" still shares the "Elvis"
// and "Presley" tokens with "Elvis Presley").
func cellTokens(v string, flatten bool) []string {
	if !flatten {
		return []string{v}
	}
	fields := strings.Fields(v)
	if len(fields) == 0 {
		return nil
	}
	return fields
}

// walk generates one random-walk sentence starting at node start.
func (g *tripartite) walk(start string, length int, rng *rand.Rand) []string {
	sentence := make([]string, 0, length)
	cur := start
	for len(sentence) < length {
		sentence = append(sentence, cur)
		var next string
		switch {
		case len(cur) >= len(valPrefix) && cur[:len(valPrefix)] == valPrefix:
			nbrs := g.valueNeighbors[cur]
			if len(nbrs) == 0 {
				return sentence
			}
			next = nbrs[rng.Intn(len(nbrs))]
		case len(cur) >= len(ridPrefix) && cur[:len(ridPrefix)] == ridPrefix:
			vals := g.rowValues[cur]
			if len(vals) == 0 {
				return sentence
			}
			next = vals[rng.Intn(len(vals))]
		default: // cid node
			vals := g.colValues[cur]
			if len(vals) == 0 {
				return sentence
			}
			next = vals[rng.Intn(len(vals))]
		}
		cur = next
	}
	return sentence
}

// Match implements core.Matcher. EmbDI trains pair-local embeddings by
// walking raw cells, so it reads no per-column derived data from the
// profiles. Graph construction, the random walks and word2vec training
// consume one sequential RNG stream (parallelizing them would change the
// trained embeddings), so the engine contributes cancellation checks between
// those stages, between walk batches and — training being nearly all of a
// match — between training sentences; the final cosine scoring fans out on
// the pool.
func (m *Matcher) Match(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	source, target := sp.Table(), tp.Table()
	stats := engine.StatsFrom(ctx)
	var model *embedding.Model
	var bridged bool
	var genErr error
	stats.Timed(engine.StageGenerate, func() {
		g := buildGraph([]*table.Table{source, target}, m.MaxRows, m.Flatten)
		bridged = g.bridged
		if !bridged {
			// No value token bridges the tables: their subgraphs are
			// disconnected, no walk can cross, and cross-table cosines
			// would be untrained noise. Skip the walks and training and
			// score every pair at the neutral 0.5 below — the denoised
			// form of "EmbDI has no signal here", and the short-circuit
			// the cascade's disjoint-values bound relies on.
			return
		}
		rng := rand.New(rand.NewSource(m.Seed))

		length := m.SentenceLength
		if length < 4 {
			length = 20
		}
		walks := m.WalksPerNode
		if walks <= 0 {
			walks = 8
		}
		var corpus [][]string
		starts := append(append([]string{}, g.cids...), g.rids...)
		for si, s := range starts {
			if si%64 == 0 {
				if genErr = ctx.Err(); genErr != nil {
					return
				}
			}
			for w := 0; w < walks; w++ {
				sent := g.walk(s, length, rng)
				if len(sent) > 1 {
					corpus = append(corpus, sent)
				}
			}
		}
		if genErr = ctx.Err(); genErr != nil {
			return
		}
		model, genErr = embedding.TrainWord2Vec(ctx, corpus, embedding.Word2VecOptions{
			Dim:    m.Dimensions,
			Window: m.Window,
			Epochs: m.Epochs,
			Seed:   m.Seed,
		})
	})
	if genErr != nil {
		return nil, genErr
	}
	return planner.ScorePairs(ctx, sp, tp, 0, "", nil, func(i, j int) (float64, bool) {
		if !bridged {
			return 0.5, true // disconnected graph: neutral score, no model
		}
		cos := model.Similarity(
			cidNode(0, source.Columns[i].Name),
			cidNode(1, target.Columns[j].Name),
		)
		return (cos + 1) / 2, true // map cosine to [0,1]
	})
}
