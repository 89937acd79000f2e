// Package profile is the shared lazy column-profile layer of the suite:
// every piece of derived per-column data the matchers and the discovery
// index consume — distinct value sets, sorted distinct values, name tokens,
// prepared (normalized + tokenized) names, trimmed/lowercased/parsed value
// forms, numeric vectors, summary statistics and MinHash signatures — is
// computed at most once per column and cached here, instead of being
// re-derived by every matcher on every Match call.
//
// A Profile is lazy (nothing is computed until first use) and
// concurrency-safe (each artifact is guarded by a sync.Once, the signature by
// a mutex), so one profile can feed an ensemble's members, a worker-pool
// experiment grid, and concurrent discovery queries at the same time. A TableProfile bundles the profiles of one table; a
// Store (store.go) caches TableProfiles per corpus with explicit
// invalidation, stale detection, and a parallel Warm pass.
//
// A profile either interns or it does not. Every profile hashes each
// distinct value once (intern.Hash64) and derives every MinHash signature
// from those base hashes, so signatures are bit-identical in both modes.
// A MinHash slot does not depend on the signature's length, so a profile
// keeps one signature, the longest asked for, and serves every shorter
// length as a read-only prefix of it.
// A profile built against a value dictionary (internal/intern — the Store
// attaches its own automatically; NewPair attaches a private one to a
// one-shot pair) also interns its values and caches its distinct sets as
// sorted interned-id slices. The matchers' value-overlap kernels run on
// those id slices only, so a pair handed to a matcher must intern into one
// dictionary (Dict; internal/core enforces it). A dictionary-less profile
// (New) hashes and never interns: that is how a catalog profiles the tables
// it ingests and the queries it answers, which need signatures only.
//
// The cached slices and maps returned by accessors are shared, not copied:
// callers must treat them as read-only.
package profile

import (
	"sort"
	"strings"
	"sync"

	"valentine/internal/intern"
	"valentine/internal/strutil"
	"valentine/internal/table"
)

// Profile is the lazily-computed bundle of derived data for one column.
type Profile struct {
	tableName string
	col       *table.Column

	// dict, when non-nil, is the corpus-scoped value dictionary shared by
	// every profile of one Store (or one NewPair/NewInterned call): distinct
	// values intern to dense uint32 ids, so pairwise overlap kernels run on
	// sorted id slices. Nil means the profile hashes its values and never
	// interns them.
	dict *intern.Dict

	hashOnce   sync.Once
	idset      *intern.Set // sorted interned distinct ids (nil without dict)
	baseHashes []uint64    // one base hash per distinct value, order unspecified

	distinctOnce sync.Once
	distinct     map[string]struct{}

	sortedOnce sync.Once
	sorted     []string

	tokensOnce sync.Once
	tokens     []string
	tokenSet   map[string]struct{}

	namesOnce sync.Once
	name      strutil.Name // the column name, prepared for NameSim
	path      strutil.Name // "table.column", likewise

	parsedOnce sync.Once
	parsed     []ParsedValue

	numericOnce sync.Once
	numeric     []float64

	numDistOnce sync.Once
	numDist     []float64

	statsOnce sync.Once
	stats     table.ColumnStats

	sigMu sync.Mutex
	sig   []uint64 // the longest signature computed so far
}

// ParsedValue is one distinct column value in its derived forms: trimmed,
// lowercased, and — when the trimmed form parses as a float — numeric.
type ParsedValue struct {
	Value string // whitespace-trimmed distinct value (never empty)
	Lower string // lowercase form of Value
	Num   float64
	IsNum bool
}

// TableName returns the owning table's name at profiling time.
func (p *Profile) TableName() string { return p.tableName }

// Name returns the column name.
func (p *Profile) Name() string { return p.col.Name }

// Type returns the column's inferred type.
func (p *Profile) Type() table.Type { return p.col.Type }

// Rows returns the number of cells (including empty ones).
func (p *Profile) Rows() int { return len(p.col.Values) }

// Column returns the underlying column for raw value access.
func (p *Profile) Column() *table.Column { return p.col }

// DistinctValues returns the cached set of distinct non-empty values.
func (p *Profile) DistinctValues() map[string]struct{} {
	p.distinctOnce.Do(func() {
		p.distinct = p.col.DistinctValues()
	})
	return p.distinct
}

// Distinct returns the number of distinct non-empty values.
func (p *Profile) Distinct() int { return len(p.DistinctValues()) }

// SortedDistinct returns the cached sorted distinct non-empty values.
func (p *Profile) SortedDistinct() []string {
	p.sortedOnce.Do(func() {
		set := p.DistinctValues()
		out := make([]string, 0, len(set))
		for v := range set {
			out = append(out, v)
		}
		sort.Strings(out)
		p.sorted = out
	})
	return p.sorted
}

// NameTokens returns the cached lowercase word tokens of the column name.
func (p *Profile) NameTokens() []string {
	p.tokensOnce.Do(func() {
		p.tokens = strutil.Tokenize(p.col.Name)
		p.tokenSet = strutil.ToSet(p.tokens)
	})
	return p.tokens
}

// NameTokenSet returns the cached name tokens as a set.
func (p *Profile) NameTokenSet() map[string]struct{} {
	p.NameTokens()
	return p.tokenSet
}

// PreparedName returns the column name in its cached comparison form
// (normalized + tokenized once): name-similarity matchers call its Sim
// per column pair instead of strutil.NameSim on the raw strings.
func (p *Profile) PreparedName() *strutil.Name {
	p.prepareNames()
	return &p.name
}

// PreparedPath is PreparedName for the column's name path from the table
// root, "table.column".
func (p *Profile) PreparedPath() *strutil.Name {
	p.prepareNames()
	return &p.path
}

func (p *Profile) prepareNames() {
	p.namesOnce.Do(func() {
		p.name = strutil.PrepareName(p.col.Name)
		p.path = strutil.PrepareName(p.tableName + "." + p.col.Name)
	})
}

// SampleDistinct returns up to limit distinct values, deterministically:
// the full sorted set when it fits, otherwise a stride sample across it so
// the sample spans the value range. Both instance-overlap matchers (coma,
// jaccard-levenshtein) sample through this one helper, so their sampling
// determinism can never diverge. The result may alias the profile's cache
// and must be treated as read-only.
func (p *Profile) SampleDistinct(limit int) []string {
	vals := p.SortedDistinct()
	if len(vals) <= limit {
		return vals
	}
	out := make([]string, 0, limit)
	step := float64(len(vals)) / float64(limit)
	for i := 0; i < limit; i++ {
		out = append(out, vals[int(float64(i)*step)])
	}
	return out
}

// ParsedDistinct returns the distinct values in trimmed/lowercased/parsed
// form, ordered as SortedDistinct. Values that trim to the empty string are
// dropped; values whose trimmed forms collide are reported once.
func (p *Profile) ParsedDistinct() []ParsedValue {
	p.parsedOnce.Do(func() {
		sorted := p.SortedDistinct()
		out := make([]ParsedValue, 0, len(sorted))
		// Distinct raw values that trim to themselves cannot collide, so
		// the duplicate map starts at the first value that trims, seeded
		// with every value kept before it.
		var seen map[string]struct{}
		for _, raw := range sorted {
			v := strings.TrimSpace(raw)
			if seen == nil && len(v) != len(raw) {
				seen = make(map[string]struct{}, len(sorted))
				for _, pv := range out {
					seen[pv.Value] = struct{}{}
				}
			}
			if v == "" {
				continue
			}
			if seen != nil {
				if _, dup := seen[v]; dup {
					continue
				}
				seen[v] = struct{}{}
			}
			pv := ParsedValue{Value: v, Lower: strings.ToLower(v)}
			if f, err := table.ParseNumber(v); err == nil {
				pv.Num, pv.IsNum = f, true
			}
			out = append(out, pv)
		}
		p.parsed = out
	})
	return p.parsed
}

// NumericValues returns the cached numeric vector: every non-empty cell
// parseable as a float, in row order with multiplicity, plus its length.
func (p *Profile) NumericValues() ([]float64, int) {
	p.numericOnce.Do(func() {
		p.numeric, _ = p.col.NumericValues()
	})
	return p.numeric, len(p.numeric)
}

// NumericDistinctSorted returns the cached ascending numeric values of the
// column's parsed distinct values: one entry per ParsedDistinct entry whose
// trimmed form parses as a float. Distinct string forms of the same number
// ("1" and "1.0") contribute one entry each, so the length is exactly the
// number of numeric keys this column contributes to a cross-table value
// universe built over parsed distinct values — the distribution matcher's
// score bound counts rank-gap keys with it.
func (p *Profile) NumericDistinctSorted() []float64 {
	p.numDistOnce.Do(func() {
		parsed := p.ParsedDistinct()
		out := make([]float64, 0, len(parsed))
		for _, pv := range parsed {
			if pv.IsNum {
				out = append(out, pv.Num)
			}
		}
		sort.Float64s(out)
		p.numDist = out
	})
	return p.numDist
}

// Stats returns the cached summary statistics, computed from the cached
// distinct set and numeric vector.
func (p *Profile) Stats() table.ColumnStats {
	p.statsOnce.Do(func() {
		nums, _ := p.NumericValues()
		p.stats = p.col.StatsFromDerived(nums, p.Distinct())
	})
	return p.stats
}

// Dict returns the attached value dictionary (nil when the profile is
// dictionary-less).
func (p *Profile) Dict() *intern.Dict { return p.dict }

// InternedDistinct returns the column's distinct values as a sorted
// interned-id set over the attached dictionary, or nil — without hashing
// anything — when no dictionary is attached. Two profiles sharing one
// dictionary overlap through the integer-set kernel (intern.IntersectCount).
func (p *Profile) InternedDistinct() *intern.Set {
	if p.dict == nil {
		return nil
	}
	p.hash()
	return p.idset
}

// hash memoizes the base hash of every distinct value, once; with a
// dictionary attached it interns each value as well and builds the id set.
func (p *Profile) hash() {
	p.hashOnce.Do(func() {
		set := p.DistinctValues()
		hashes := make([]uint64, 0, len(set))
		if p.dict == nil {
			for v := range set {
				hashes = append(hashes, intern.Hash64(v))
			}
			p.baseHashes = hashes
			return
		}
		ids := make([]uint32, 0, len(set))
		for v := range set {
			id, h := p.dict.InternHash(v)
			ids = append(ids, id)
			hashes = append(hashes, h)
		}
		p.baseHashes = hashes
		p.idset = intern.NewSet(ids)
	})
}

// Signature returns the k-slot MinHash signature of the column's distinct
// values. Slot s is the minimum over the values of mix(base hash, s),
// whatever k is, so a shorter signature is a prefix of a longer one: the
// profile keeps the longest signature computed so far, returns its first k
// slots for any k up to its length, and computes a new one only for a
// longer k. The result is read-only and may share memory with other
// results; its capacity is k, so an append to it copies. It mixes the
// memoized base hashes — one hash per distinct value — so it is
// bit-identical whether or not a dictionary is attached.
func (p *Profile) Signature(k int) []uint64 {
	if k <= 0 {
		k = DefaultSignature
	}
	p.hash() // outside the lock: sync.Once-guarded
	p.sigMu.Lock()
	defer p.sigMu.Unlock()
	if k > len(p.sig) {
		p.sig = SignatureFromHashes(p.baseHashes, k)
	}
	return p.sig[:k:k]
}

// warm forces every artifact of the profile, including both suite
// signature lengths (the longer first, so the shorter is its prefix) —
// except the prepared names, which only the name-similarity matchers read
// and the discovery index never does.
func (p *Profile) warm() {
	p.SortedDistinct()
	p.NameTokens()
	p.ParsedDistinct()
	p.NumericDistinctSorted()
	p.Stats()
	p.Signature(DefaultSignature)
	p.Signature(CompactSignature)
}

// TableProfile bundles the per-column profiles of one table plus
// table-level derived data (name tokens).
type TableProfile struct {
	tab  *table.Table
	cols []*Profile
	dict *intern.Dict // the dictionary shared by cols (nil when dict-less)

	nameTokensOnce sync.Once
	nameTokens     []string
}

// NewColumn profiles one column outside any table context (tests, ad-hoc
// column comparisons). Matchers should profile whole tables with New.
func NewColumn(tableName string, c *table.Column) *Profile {
	return &Profile{tableName: tableName, col: c}
}

// New profiles a table without caching it in any Store and without a value
// dictionary: MinHash hashes raw values, and no interned id sets exist, so
// a matcher given a New profile directly rejects it (core.ValidatePair);
// core.MatchProfilesWithContext re-pairs it through NewPair instead. A
// catalog profiles its tables and queries this way. Derived data is still computed lazily and at most once.
func New(t *table.Table) *TableProfile {
	return newWith(t, nil)
}

// NewInterned profiles a table against a shared value dictionary: distinct
// values intern to dense ids (enabling the integer-set overlap kernels
// against any other profile on the same dictionary) and MinHash signatures
// derive from the base hashes interning computed, bit-identical to New's.
func NewInterned(t *table.Table, d *intern.Dict) *TableProfile {
	return newWith(t, d)
}

// NewHashSharing is New; the dictionary argument is ignored. It stays only
// because the benchmark harness (bench/serving.go) calls it.
func NewHashSharing(t *table.Table, _ *intern.Dict) *TableProfile { return New(t) }

// NewPair profiles two tables against one fresh private dictionary, so a
// one-shot pairwise match (the store-less Match path) still runs on the
// integer-set kernels. The dictionary's lifetime is the pair's.
func NewPair(source, target *table.Table) (*TableProfile, *TableProfile) {
	d := intern.NewDict()
	return newWith(source, d), newWith(target, d)
}

func newWith(t *table.Table, d *intern.Dict) *TableProfile {
	tp := &TableProfile{tab: t, cols: make([]*Profile, len(t.Columns)), dict: d}
	for i := range t.Columns {
		tp.cols[i] = &Profile{tableName: t.Name, col: &t.Columns[i], dict: d}
	}
	return tp
}

// Dict returns the value dictionary this table's column profiles intern
// into (nil when dictionary-less). Two TableProfiles with the same non-nil
// Dict can compare interned-id sets column-for-column — the matcher
// contract's precondition (core.ValidatePair).
func (tp *TableProfile) Dict() *intern.Dict { return tp.dict }

// Table returns the underlying table.
func (tp *TableProfile) Table() *table.Table { return tp.tab }

// Name returns the table name.
func (tp *TableProfile) Name() string { return tp.tab.Name }

// NumColumns returns the number of profiled columns.
func (tp *TableProfile) NumColumns() int { return len(tp.cols) }

// Column returns the profile of column i.
func (tp *TableProfile) Column(i int) *Profile { return tp.cols[i] }

// Columns returns the profiles in column order (read-only).
func (tp *TableProfile) Columns() []*Profile { return tp.cols }

// ColumnByName returns the profile of the named column, or nil.
func (tp *TableProfile) ColumnByName(name string) *Profile {
	for _, p := range tp.cols {
		if p.col.Name == name {
			return p
		}
	}
	return nil
}

// NameTokens returns the cached lowercase word tokens of the table name.
func (tp *TableProfile) NameTokens() []string {
	tp.nameTokensOnce.Do(func() {
		tp.nameTokens = strutil.Tokenize(tp.tab.Name)
	})
	return tp.nameTokens
}

// Warm forces every derived artifact of every column, so later concurrent
// readers only ever hit caches.
func (tp *TableProfile) Warm() {
	tp.NameTokens()
	for _, p := range tp.cols {
		p.warm()
	}
}
