package tile

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/jsonb"
	"repro/internal/jsontape"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
)

// tapeCorpus is a mixed corpus exercising every identity-relevant
// feature: frequent paths above and below the threshold, type
// outliers, nulls, date-like strings, duplicate keys, escaped keys,
// arrays past the slot cap, and empty containers.
func tapeCorpus(t *testing.T) (docs []jsonvalue.Value, tapes []*jsontape.Doc) {
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, fmt.Sprintf(
			`{"id":%d,"name":"user-%d","score":%d.5,"active":%v,"when":"2021-0%d-1%d","tags":[%d,%d,"x"]}`,
			i, i%7, i, i%2 == 0, i%9+1, i%10, i, i+1))
	}
	// Type outliers: "id" as string, "score" as int, nulls.
	lines = append(lines,
		`{"id":"oops","name":null,"score":7,"active":1,"when":"not a date"}`,
		`{"id":99,"extra":{"deep":{"leaf":true}},"empty":{},"ar":[]}`,
		`{"dup":1,"dup":"two","a.b":3,"c\\d":4,"":5}`,
		`{"big":[0,1,2,3,4,5,6,7,8,9,10,11],"id":100}`,
	)
	for _, ln := range lines {
		v, err := jsontext.Parse([]byte(ln))
		if err != nil {
			t.Fatalf("parse %q: %v", ln, err)
		}
		docs = append(docs, v)
		d := &jsontape.Doc{}
		if err := jsontape.Parse([]byte(ln), d); err != nil {
			t.Fatalf("tape parse %q: %v", ln, err)
		}
		tapes = append(tapes, d)
	}
	return docs, tapes
}

// TestBuildTapeMatchesBuild locks the tape build to the tree oracle:
// identical header, columns (bytes), statistics, and raw storage.
func TestBuildTapeMatchesBuild(t *testing.T) {
	docs, tapes := tapeCorpus(t)
	cfg := DefaultConfig()
	cfg.TileSize = len(docs)
	cfg.MaxArraySlots = 2

	var m Metrics
	tree := NewBuilder(cfg, nil).Build(docs)
	tape := NewBuilder(cfg, &m).BuildTape(tapes)
	assertSameTile(t, tree, tape)
	if m.DocsTape.Load() != int64(len(tapes)) {
		t.Errorf("tape metrics: DocsTape=%d, want %d", m.DocsTape.Load(), len(tapes))
	}
	if m.SubtreesSkipped.Load() == 0 {
		t.Errorf("expected skipped subtrees with MaxArraySlots=2")
	}
}

// TestRecomputeInputMatchesTreeOracle drifts a tile with updates until
// it wants recomputation (§4.7), then rebuilds it from the recompute
// input: each row's binary JSON re-serialized with AppendJSON and
// parsed into a tape for BuildTape. The result must equal the tree
// oracle over the decoded rows — floats stay floats through the text
// round trip, and the binary format's sorted keys come back in order.
func TestRecomputeInputMatchesTreeOracle(t *testing.T) {
	_, tapes := tapeCorpus(t)
	cfg := DefaultConfig()
	cfg.TileSize = len(tapes)
	cfg.MaxArraySlots = 2
	cfg.Threshold = 0.5 // the drifted majority is just over half the rows
	tl := NewBuilder(cfg, nil).BuildTape(tapes)

	var enc jsonb.Encoder
	for i := 0; !tl.NeedsRecompute(); i++ {
		if i == tl.NumRows() {
			t.Fatal("updates never made the tile want recomputation")
		}
		src := fmt.Sprintf(`{"v":%d.25,"f":%d.0,"kind":"drift-%d","at":"2021-03-1%d","nested":{"k":%d,"arr":[1,2,3]}}`,
			i, i, i%3, i%10, i)
		doc, err := jsontext.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		if !tl.Update(i, doc, &enc, cfg.MaxArraySlots) {
			t.Fatalf("update %d not flagged as an outlier", i)
		}
	}

	decoded := make([]jsonvalue.Value, tl.NumRows())
	retapes := make([]*jsontape.Doc, tl.NumRows())
	for i := range decoded {
		decoded[i] = tl.Raw(i).Decode()
		retapes[i] = &jsontape.Doc{}
		if err := jsontape.Parse(tl.Raw(i).AppendJSON(nil), retapes[i]); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	tree := NewBuilder(cfg, nil).Build(decoded)
	tape := NewBuilder(cfg, nil).BuildTape(retapes)
	assertSameTile(t, tree, tape)
	if tape.FindColumn("f", keypath.TypeDouble) < 0 {
		t.Errorf("integral float column f was not re-mined as Double")
	}
}

// assertSameTile compares two tiles' headers, column bytes,
// statistics, seen-path filters and raw storage.
func assertSameTile(t *testing.T, tree, tape *Tile) {
	t.Helper()
	if tree.NumRows() != tape.NumRows() {
		t.Fatalf("numRows: tree %d tape %d", tree.NumRows(), tape.NumRows())
	}
	tc, pc := tree.Columns(), tape.Columns()
	if len(tc) != len(pc) {
		t.Fatalf("column count: tree %d tape %d", len(tc), len(pc))
	}
	for i := range tc {
		a, b := tc[i], pc[i]
		if a.Path != b.Path || a.MinedType != b.MinedType || a.StorageType != b.StorageType ||
			a.HasTypeOutliers != b.HasTypeOutliers {
			t.Errorf("column %d header differs: tree %+v tape %+v", i, a, b)
		}
		if !bytes.Equal(a.Col.Serialize(), b.Col.Serialize()) {
			t.Errorf("column %d (%s) bytes differ", i, a.Path)
		}
	}
	if !reflect.DeepEqual(tree.PathFrequencies(), tape.PathFrequencies()) {
		t.Errorf("pathFreq differs:\n tree %v\n tape %v", tree.PathFrequencies(), tape.PathFrequencies())
	}
	for p, s := range tree.Sketches() {
		o := tape.Sketch(p)
		if o == nil || o.Estimate() != s.Estimate() {
			t.Errorf("sketch %q differs", p)
		}
	}
	for p, h := range tree.Histograms() {
		o := tape.Histogram(p)
		if o == nil || o.Total() != h.Total() || o.Min() != h.Min() || o.Max() != h.Max() {
			t.Errorf("histogram %q differs", p)
		}
	}
	if !reflect.DeepEqual(tree.SeenFilter().Bits(), tape.SeenFilter().Bits()) {
		t.Errorf("seen-paths bloom filter differs")
	}
	for i := 0; i < tree.NumRows(); i++ {
		if !bytes.Equal(tree.RawBytes(i), tape.RawBytes(i)) {
			t.Errorf("raw doc %d differs", i)
		}
	}
}

// TestCollectTapeTransactionsMatchesTree checks the shared-dictionary
// transactions agree id for id.
func TestCollectTapeTransactionsMatchesTree(t *testing.T) {
	docs, tapes := tapeCorpus(t)
	dictTree, dictTape := keypath.NewDict(), keypath.NewDict()
	txTree := CollectTransactions(docs, 2, dictTree)
	txTape := CollectTapeTransactions(tapes, 2, dictTape)
	if dictTree.Len() != dictTape.Len() {
		t.Fatalf("dict length: tree %d tape %d", dictTree.Len(), dictTape.Len())
	}
	for id := int32(0); id < int32(dictTree.Len()); id++ {
		if dictTree.Item(id) != dictTape.Item(id) {
			t.Fatalf("dict item %d: tree %+v tape %+v", id, dictTree.Item(id), dictTape.Item(id))
		}
	}
	if !reflect.DeepEqual(txTree, txTape) {
		t.Fatalf("transactions differ")
	}
}
