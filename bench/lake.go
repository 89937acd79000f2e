package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"valentine/internal/datagen"
	"valentine/internal/discovery"
	"valentine/internal/fabrication"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// lake is the shared corpus: families of tables fabricated from one source
// each, so a query collides with its family and little else and the LSH index
// has something to prune.
type lake struct {
	Tables []*table.Table
	// Pairs are the fabricated pairs, indexing Tables; Family[i] is the
	// family table i came from.
	Pairs  []lakePair
	Family []int
	// Columns counts every column; UserBytes every cell byte (the
	// denominator of the write-amplification ratios).
	Columns   int
	UserBytes int64
	Hash      string
	// GenerateS and FabricateS split the generation time between
	// datagen.Source and fabrication.Fabricate.
	GenerateS, FabricateS float64
}

type lakePair struct{ Source, Target int }

// genLake builds the corpus for a seed: family f is
// datagen.Source(SourceNames()[f%3], {Rows, Seed: seed*1000+f}) put through
// four Fabricate calls cycling the recipe kinds and noise variants.
func genLake(seed int64, families, rows int) (*lake, error) {
	lk := &lake{}
	kinds := fabrication.RecipeKinds()
	variants := fabrication.AllVariants()
	sources := datagen.SourceNames()
	for f := 0; f < families; f++ {
		t0 := time.Now()
		src, err := datagen.Source(sources[f%len(sources)], datagen.Options{Rows: rows, Seed: seed*1000 + int64(f)})
		if err != nil {
			return nil, err
		}
		lk.GenerateS += time.Since(t0).Seconds()
		t0 = time.Now()
		for p, kind := range kinds {
			fab := fabrication.New(seed*1_000_003 + int64(f)*7919 + int64(p))
			pair, err := fab.Fabricate(src, fabrication.Recipe{
				Kind: kind, RowOverlap: 0.5, ColOverlap: 0.5,
				Variant: variants[(f+p)%len(variants)],
			})
			if err != nil {
				return nil, fmt.Errorf("family %d, %s: %w", f, kind, err)
			}
			lk.Pairs = append(lk.Pairs, lakePair{lk.add(pair.Source, f), lk.add(pair.Target, f)})
		}
		lk.FabricateS += time.Since(t0).Seconds()
	}
	lk.Hash = hashTables(lk.Tables)
	return lk, nil
}

// pick returns the i-th table of a rotation over the lake's strata: source
// kind (family%3: 13 to 28 columns), fabricated pair (which recipe, so which
// share of the columns), role (source or target) and noise variant. Only the
// family is drawn from rng. Workloads take their queries through it, so every
// seed's query mix has the same shares of wide and narrow, clean and noisy
// tables, and only the tables themselves differ; without it a seed's luck in
// drawing wide tables moves a median more than a code change would.
func (lk *lake) pick(rng *rand.Rand, i int) int {
	kind, p, role, v := i%3, i/3%4, i/12%2, i/24%4
	return lk.pickFrom(rng, kind, p, role, v)
}

// pickFrom draws a table of source kind `kind`, pair p, role and variant v.
// Family f has source kind f%3 and gives pair p variant (f+p)%4, so the
// families that fit repeat every 12.
func (lk *lake) pickFrom(rng *rand.Rand, kind, p, role, v int) int {
	c := 0
	for c%3 != kind || (c+p)%4 != v {
		c++
	}
	families := len(lk.Tables) / 8
	f := c
	if groups := (families - c + 11) / 12; groups > 1 {
		f += 12 * rng.Intn(groups)
	}
	return (f*8 + p*2 + role) % len(lk.Tables)
}

func (lk *lake) add(t *table.Table, family int) int {
	t.Name = fmt.Sprintf("c%05d_%s", len(lk.Tables), t.Name)
	lk.Tables = append(lk.Tables, t)
	lk.Family = append(lk.Family, family)
	lk.Columns += t.NumColumns()
	lk.UserBytes += tableBytes(t)
	return len(lk.Tables) - 1
}

// tableBytes is the size of a table's cells and names: the user's bytes.
func tableBytes(t *table.Table) int64 {
	n := int64(len(t.Name))
	for i := range t.Columns {
		n += int64(len(t.Columns[i].Name))
		for _, v := range t.Columns[i].Values {
			n += int64(len(v))
		}
	}
	return n
}

// hashTables is the hex SHA-256 of the tables' canonical serialization,
// every field length-prefixed.
func hashTables(ts []*table.Table) string {
	h := sha256.New()
	for _, t := range ts {
		hashTable(h, t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashTable(h hash.Hash, t *table.Table) {
	hashField(h, t.Name)
	for i := range t.Columns {
		hashField(h, t.Columns[i].Name)
		for _, v := range t.Columns[i].Values {
			hashField(h, v)
		}
	}
}

func hashField(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// applyBatch is the set-up load's batch size: ix.Apply in 64-op batches.
const applyBatch = 64

// writeSnapshot loads the lake into a fresh catalog in applyBatch-op batches
// and snapshots it to dir. Whoever serves the directory loads it back
// (mmap'd v2 segments) — the state a server is in after a restart.
func (lk *lake) writeSnapshot(dir string) error {
	ix := discovery.New(discovery.Options{})
	for i := 0; i < len(lk.Tables); i += applyBatch {
		batch := lk.Tables[i:min(i+applyBatch, len(lk.Tables))]
		ops := make([]discovery.Op, len(batch))
		for j, t := range batch {
			ops[j] = discovery.Op{Upsert: profile.NewInterned(t, ix.Dict())}
		}
		for j, err := range ix.Apply(ops) {
			if err != nil {
				return fmt.Errorf("loading %s: %w", batch[j].Name, err)
			}
		}
	}
	// The load races its own background compactions, so it can end with one
	// sealed segment or with eight. One explicit compaction makes every
	// set-up end in the same state: a single sealed segment.
	ix.WaitCompaction()
	ix.Compact()
	return ix.SaveSnapshot(dir)
}

// churnTable is the i-th ingest payload: a datagen.Churn table renamed so
// the name says which op wrote it.
func churnTable(seed int64, i, rows int) *table.Table {
	t := datagen.Churn(i, datagen.Options{Rows: rows, Seed: seed})
	t.Name = fmt.Sprintf("churn_%06d", i)
	return t
}

// junkTables builds n tables with private vocabularies and digit-bearing
// private column names (the cascade bench's junk recipe): nothing a query
// from the lake shares a value or a name token with, so a matcher's bound on
// them is near zero.
func junkTables(rng *rand.Rand, tag string, n, cols, rows int) []*table.Table {
	out := make([]*table.Table, n)
	for j := range out {
		t := table.New(fmt.Sprintf("junk%s%03d", tag, j))
		for c := 0; c < cols; c++ {
			vals := make([]string, rows)
			for r := range vals {
				vals[r] = fmt.Sprintf("junk%s%03d-%d-%d", tag, j, c, rng.Intn(400))
			}
			t.AddColumn(fmt.Sprintf("junk%s%03d field%d", tag, j, c), vals)
		}
		out[j] = t
	}
	return out
}

// hashStrings is the hex SHA-256 of a list of strings, length-prefixed.
func hashStrings(ss []string) string {
	h := sha256.New()
	for _, s := range ss {
		hashField(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}
