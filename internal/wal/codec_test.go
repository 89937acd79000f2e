package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"valentine/internal/datagen"
	"valentine/internal/discovery"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// churnRecords builds the records ingest-heavy's restart tail leaves in the
// log: 440 one-op records of datagen.Churn upserts (60 rows), every 11th op
// removing the table written 10 ops before it.
func churnRecords(t testing.TB) []Record {
	t.Helper()
	ix := discovery.New(discovery.Options{})
	defer ix.Close()
	var recs []Record
	var names []string
	for i := 0; i < 440; i++ {
		var op discovery.Op
		if i%11 == 10 {
			op.Remove = names[i-10]
		} else {
			op.Upsert = profile.New(datagen.Churn(200_000+i, datagen.Options{Rows: 60, Seed: 7}))
		}
		rop, err := ix.ReplayForm(op)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, rop.Name)
		recs = append(recs, Record{Seq: uint64(i + 1), Ops: []discovery.ReplayOp{rop}})
	}
	return recs
}

// edgeRecords are the shapes the churn tail never produces: a batch that
// upserts, removes and re-upserts one name; zero-column tables; empty
// tokens; dictionary deltas of the kind older releases logged (one empty,
// one starting past 2^32); non-ASCII names; an op-less record.
func edgeRecords(t testing.TB) []Record {
	t.Helper()
	ix := discovery.New(discovery.Options{})
	defer ix.Close()
	form := func(tab *table.Table) discovery.ReplayOp {
		rop, err := ix.ReplayForm(discovery.Op{Upsert: profile.New(tab)})
		if err != nil {
			t.Fatal(err)
		}
		return rop
	}
	x1 := form(table.New("X").AddColumn("k", vals("x", 0, 20)))
	x2 := form(table.New("X").AddColumn("k", vals("y", 0, 30)).AddColumn("v", vals("x", 5, 35)))
	uni := form(table.New("données_客户").AddColumn("名前 Ünïcode", []string{"ü", "客", "Ωmega", "ü"}))
	sig := []uint64{1, 2, 3, 4}
	return []Record{
		{Seq: 1, Ops: []discovery.ReplayOp{x1, {Remove: "X"}, x2}, DictStart: 0, DictVals: append(vals("x", 0, 20), vals("y", 0, 30)...)},
		{Seq: 2, Ops: []discovery.ReplayOp{{Name: "bare"}, {Name: "bare-empty", Cols: []discovery.ColumnProfile{}}, {Name: ""}}},
		{Seq: 3, DictStart: 17, DictVals: []string{}, Ops: []discovery.ReplayOp{{Name: "hollow", Cols: []discovery.ColumnProfile{
			{Table: "hollow", Column: "a", Tokens: []string{}, Signature: sig},
			{Table: "hollow", Column: "a", Type: table.Type(2), Rows: 1 << 31, Distinct: 3, Tokens: []string{"a", "", "a"}, Signature: sig},
			{Table: "hollow", Column: "", Signature: sig},
		}}}},
		{Seq: 4, DictStart: 1 << 40, Ops: []discovery.ReplayOp{uni, {Remove: "Ωmega"}}, DictVals: []string{"", "é", "\x00\xff"}},
		{Seq: 1<<64 - 1},
	}
}

// binaryRoundTrip is a record as the log's own codec recovers it.
func binaryRoundTrip(t *testing.T, rec Record) Record {
	t.Helper()
	p, err := appendRecord(nil, &rec)
	if err != nil {
		t.Fatalf("record %d: encode: %v", rec.Seq, err)
	}
	var scratch []uint64
	got, err := decodeRecord(p, &scratch)
	if err != nil {
		t.Fatalf("record %d: decode: %v", rec.Seq, err)
	}
	return got
}

func gobRoundTrip(t *testing.T, rec Record) Record {
	t.Helper()
	p, err := encodeRecordRef(rec)
	if err != nil {
		t.Fatalf("record %d: gob encode: %v", rec.Seq, err)
	}
	got, err := decodeRecordRef(p)
	if err != nil {
		t.Fatalf("record %d: gob decode: %v", rec.Seq, err)
	}
	return got
}

// TestRecordCodecMatchesGob: every record the binary codec round-trips
// equals its gob round trip, and the two decodings of the churn tail replay
// into catalogs with equal stats and equal top-k answers.
func TestRecordCodecMatchesGob(t *testing.T) {
	churn := churnRecords(t)
	var viaBinary, viaGob []Record
	for _, rec := range append(churn, edgeRecords(t)...) {
		got, want := binaryRoundTrip(t, rec), gobRoundTrip(t, rec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: binary round trip\n%+v\n!= gob round trip\n%+v", rec.Seq, got, want)
		}
		if len(viaBinary) < len(churn) {
			viaBinary, viaGob = append(viaBinary, got), append(viaGob, want)
		}
	}

	replay := func(recs []Record) *discovery.Index {
		// A memtable that never seals keeps Stats free of compaction timing.
		ix := discovery.New(discovery.Options{SealAfter: 1 << 20})
		if err := ReplayInto(ix, recs); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	a, b := replay(viaBinary), replay(viaGob)
	defer a.Close()
	defer b.Close()
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("replayed stats differ:\nbinary %+v\ngob    %+v", sa, sb)
	}
	if a.NumTables() != 360 { // 400 upserts, 40 of them removed
		t.Fatalf("replayed %d tables, want 360", a.NumTables())
	}
	for _, i := range []int{0, 57, 123, 439, 5000} {
		q := datagen.Churn(200_000+i, datagen.Options{Rows: 60, Seed: 7})
		q.Name = "query"
		for _, mode := range []discovery.Mode{discovery.ModeJoin, discovery.ModeUnion} {
			ra, err := a.Search(q, mode, 10)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.Search(q, mode, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(ra) == 0 || !reflect.DeepEqual(ra, rb) {
				t.Fatalf("query %d %s: binary-replayed top-k %+v, gob-replayed %+v", i, mode, ra, rb)
			}
		}
	}
}

// TestAppendRejectsUnencodableOp: an upsert whose columns disagree on
// signature length has no one-table image; Append names the reason and
// leaves the log untouched.
func TestAppendRejectsUnencodableOp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.wal")
	res := mustOpen(t, path, 1, 0, Options{})
	l := res.Log
	defer l.Close()
	size := l.Size()
	mixed := discovery.ReplayOp{Name: "mixed", Cols: []discovery.ColumnProfile{
		{Table: "mixed", Column: "a", Signature: []uint64{1, 2, 3, 4}},
		{Table: "mixed", Column: "b", Signature: []uint64{1, 2, 3, 4, 5}},
	}}
	if _, err := l.Append([]discovery.ReplayOp{mixed}, 0, nil); !errors.Is(err, discovery.ErrOpNotEncodable) {
		t.Fatalf("append of mixed signature lengths: err = %v, want ErrOpNotEncodable", err)
	}
	if l.Size() != size || l.LastSeq() != 0 {
		t.Fatalf("rejected append moved the log: size %d → %d, last seq %d", size, l.Size(), l.LastSeq())
	}
	mixed.Cols[1].Signature = mixed.Cols[1].Signature[:4]
	if seq, err := l.Append([]discovery.ReplayOp{mixed}, 0, nil); err != nil || seq != 1 {
		t.Fatalf("append after the fix: seq %d, err %v", seq, err)
	}
}

// TestRetiredFormatRefused: a version-1 (gob) log — the checked-in fixture
// was written by the last release with that format — is refused by name and
// left byte for byte as it was.
func TestRetiredFormatRefused(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "v1-ops.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// The fixture is what it claims: a gob header at version 1, then three
	// gob records.
	payload, rest := nextFrame(fixture)
	if h, err := decodeHeaderRef(payload); err != nil || h.Version != 1 {
		t.Fatalf("fixture header: %+v, %v", h, err)
	}
	for i := 1; i <= 3; i++ {
		payload, rest = nextFrame(rest)
		if rec, err := decodeRecordRef(payload); err != nil || rec.Seq != uint64(i) {
			t.Fatalf("fixture record %d: seq %d, %v", i, rec.Seq, err)
		}
	}

	path := filepath.Join(t.TempDir(), "ops.wal")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 1, 0, Options{}); !errors.Is(err, ErrRetiredFormat) {
		t.Fatalf("Open of a v1 log: err = %v, want ErrRetiredFormat", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, fixture) {
		t.Fatal("refused v1 log was modified")
	}
}

// FuzzWALFrame: scanFrames on any log image and decodeRecord on any payload
// never panic, and every record either of them accepts re-encodes and
// decodes to itself. testdata/fuzz/FuzzWALFrame holds the hand-made cases (torn frame,
// CRC-valid garbage, a two-table image, a duplicate-name batch, a v1 gob
// header); the seeds here keep one log and one payload in step with
// whatever the codec writes today.
func FuzzWALFrame(f *testing.F) {
	recs := edgeRecords(f)
	img := headerFrame(header{Lineage: 7, SnapEpoch: 3})
	for i := range recs {
		frame, err := recordFrame(&recs[i])
		if err != nil {
			f.Fatal(err)
		}
		img = append(img, frame...)
	}
	f.Add(img)
	p, err := appendRecord(nil, &recs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, recs, good, err := scanFrames(data)
		if err == nil && (good <= 0 || good > int64(len(data))) {
			t.Fatalf("scan accepted %d of %d bytes", good, len(data))
		}
		for _, rec := range recs {
			checkReencodes(t, rec)
		}
		var scratch []uint64
		if rec, err := decodeRecord(data, &scratch); err == nil {
			checkReencodes(t, rec)
		}
	})
}

func checkReencodes(t *testing.T, rec Record) {
	t.Helper()
	p, err := appendRecord(nil, &rec)
	if err != nil {
		t.Fatalf("accepted record %d does not re-encode: %v", rec.Seq, err)
	}
	var scratch []uint64
	again, err := decodeRecord(p, &scratch)
	if err != nil {
		t.Fatalf("re-encoded record %d does not decode: %v", rec.Seq, err)
	}
	if !reflect.DeepEqual(again, rec) {
		t.Fatalf("record %d changed across a re-encode:\n%+v\n%+v", rec.Seq, rec, again)
	}
}

// BenchmarkScanChurnLog is Open's decode of ingest-heavy's restart tail:
// the 440 churn records, framed behind a header.
func BenchmarkScanChurnLog(b *testing.B) {
	recs := churnRecords(b)
	img := headerFrame(header{})
	for i := range recs {
		frame, err := recordFrame(&recs[i])
		if err != nil {
			b.Fatal(err)
		}
		img = append(img, frame...)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, got, _, err := scanFrames(img); err != nil || len(got) != len(recs) {
			b.Fatalf("scanned %d records: %v", len(got), err)
		}
	}
}

// BenchmarkEncodeChurnRecord is one churn upsert's frame, as Append builds it.
func BenchmarkEncodeChurnRecord(b *testing.B) {
	rec := churnRecords(b)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recordFrame(&rec); err != nil {
			b.Fatal(err)
		}
	}
}
