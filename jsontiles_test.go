package jsontiles

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/jsontape"
)

func opts() Options {
	o := DefaultOptions()
	o.TileSize = 64
	o.Workers = 2
	return o
}

func docs(srcs ...string) [][]byte {
	out := make([][]byte, len(srcs))
	for i, s := range srcs {
		out[i] = []byte(s)
	}
	return out
}

func reviewDocs(n int) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, []byte(fmt.Sprintf(
			`{"review_id":"r%04d","business":"b%02d","stars":%d,"useful":%d,"date":"2020-06-%02d"}`,
			i, i%10, 1+i%5, i%50, 1+i%28)))
	}
	return out
}

func TestLoadAndScan(t *testing.T) {
	tbl, err := Load("reviews", reviewDocs(500), opts())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 500 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	res, err := tbl.Query("data->>'review_id'", "data->>'stars'::BigInt").
		WhereCmp(1, Eq, 5).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 100 {
		t.Fatalf("5-star rows = %d", res.NumRows())
	}
	if res.Value(0, 1).Int64() != 5 {
		t.Errorf("value = %v", res.Value(0, 1))
	}
}

func TestGroupByAggregates(t *testing.T) {
	tbl, err := Load("reviews", reviewDocs(500), opts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Query("data->>'stars'::BigInt", "data->>'useful'::BigInt").
		GroupBy(0).
		Aggregate(CountAll("n"), Sum(1, "useful_total"), Avg(1, "useful_avg"),
			Min(1, "min"), Max(1, "max")).
		OrderBy(0, false).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 5 {
		t.Fatalf("groups = %d\n%s", res.NumRows(), res)
	}
	if res.Value(0, 0).Int64() != 1 || res.Value(4, 0).Int64() != 5 {
		t.Errorf("group keys wrong:\n%s", res)
	}
	total := int64(0)
	for i := 0; i < res.NumRows(); i++ {
		total += res.Value(i, 1).Int64()
	}
	if total != 500 {
		t.Errorf("counts sum to %d", total)
	}
	if got := res.Columns(); got[1] != "n" || got[2] != "useful_total" {
		t.Errorf("columns = %v", got)
	}
}

func TestJoin(t *testing.T) {
	reviews, err := Load("reviews", reviewDocs(300), opts())
	if err != nil {
		t.Fatal(err)
	}
	var bdocs [][]byte
	for i := 0; i < 10; i++ {
		bdocs = append(bdocs, []byte(fmt.Sprintf(`{"id":"b%02d","city":"city%d"}`, i, i%3)))
	}
	business, err := Load("business", bdocs, opts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := reviews.Query("data->>'business'", "data->>'stars'::BigInt").
		Join(business, []string{"data->>'id'", "data->>'city'"}, 0, 0).
		GroupBy(3).
		Aggregate(CountAll("reviews"), Avg(1, "avg_stars")).
		OrderBy(0, false).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("cities = %d\n%s", res.NumRows(), res)
	}
	total := int64(0)
	for i := 0; i < 3; i++ {
		total += res.Value(i, 1).Int64()
	}
	if total != 300 {
		t.Errorf("joined review count = %d", total)
	}
}

func TestWhereVariants(t *testing.T) {
	tbl, _ := Load("t", docs(
		`{"s":"hello world","n":1}`,
		`{"s":"goodbye","n":2}`,
		`{"n":3}`,
		`{"s":"hello there","n":null}`,
	), opts())

	if res, _ := tbl.Query("data->>'s'").WhereLike(0, "hello%").Run(); res.NumRows() != 2 {
		t.Errorf("like: %d", res.NumRows())
	}
	if res, _ := tbl.Query("data->>'s'").WhereNull(0).Run(); res.NumRows() != 1 {
		t.Errorf("null: %d", res.NumRows())
	}
	if res, _ := tbl.Query("data->>'n'::BigInt").WhereIn(0, 1, 3).Run(); res.NumRows() != 2 {
		t.Errorf("in: %d", res.NumRows())
	}
	if res, _ := tbl.Query("data->>'n'::BigInt").WhereCmp(0, Ge, 2).Run(); res.NumRows() != 2 {
		t.Errorf("ge: %d", res.NumRows())
	}
}

func TestInsertFlushAndUpdate(t *testing.T) {
	o := opts()
	o.TileSize = 16
	o.PartitionSize = 2
	tbl := New("inc", o)
	for i := 0; i < 100; i++ {
		if err := tbl.Insert([]byte(fmt.Sprintf(`{"k":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Flush()
	if tbl.NumRows() != 100 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	res, _ := tbl.Query("data->>'k'::BigInt").WhereCmp(0, Lt, 10).Run()
	if res.NumRows() != 10 {
		t.Errorf("filtered = %d", res.NumRows())
	}

	// In-place update.
	if _, err := tbl.Update(5, []byte(`{"k":9999}`)); err != nil {
		t.Fatal(err)
	}
	res, _ = tbl.Query("data->>'k'::BigInt").WhereCmp(0, Eq, 9999).Run()
	if res.NumRows() != 1 {
		t.Errorf("updated row not found: %d", res.NumRows())
	}
}

func TestInsertRejectsMalformed(t *testing.T) {
	tbl := New("x", opts())
	if err := tbl.Insert([]byte(`{oops`)); err == nil {
		t.Error("malformed insert accepted")
	}
}

// TestOverLimitDocumentRejected: a document past the structural-tape
// limits is rejected with the same tape-limit error by Insert and, with
// its index, by Load.
func TestOverLimitDocumentRejected(t *testing.T) {
	restore := jsontape.SetLimitsForTesting(16, 1<<20)
	defer restore()
	over := []byte(`{"blob":"far longer than the shrunk span limit"}`)
	const limitErr = "jsontape: string length exceeds tape limits"

	tbl := New("x", opts())
	if err := tbl.Insert([]byte(`{"ok":1}`)); err != nil {
		t.Fatalf("Insert under the limit: %v", err)
	}
	if err := tbl.Insert(over); err == nil || err.Error() != limitErr {
		t.Fatalf("Insert over the limit: error %v, want %q", err, limitErr)
	}
	if _, err := Load("x", docs(`{"ok":1}`, `{"ok":2}`, string(over)), opts()); err == nil ||
		err.Error() != "document 2: "+limitErr {
		t.Fatalf("Load over the limit: error %v, want %q", err, "document 2: "+limitErr)
	}
}

func TestStatsAndStorageInfo(t *testing.T) {
	tbl, _ := Load("reviews", reviewDocs(512), opts())
	st := tbl.Stats()
	if st.Rows() != 512 {
		t.Errorf("stats rows = %d", st.Rows())
	}
	if got := st.PathCount("stars"); got != 512 {
		t.Errorf("PathCount(stars) = %d", got)
	}
	if d := st.DistinctCount("stars"); d < 4 || d > 6 {
		t.Errorf("DistinctCount(stars) = %f", d)
	}
	if len(st.TrackedPaths()) == 0 {
		t.Error("no tracked paths")
	}
	info := tbl.StorageInfo()
	if info.NumTiles != 8 {
		t.Errorf("tiles = %d (512 docs / 64)", info.NumTiles)
	}
	if info.ExtractedColumns == 0 || info.BinaryJSONBytes == 0 || info.TileColumnBytes == 0 {
		t.Errorf("storage info: %+v", info)
	}
	if info.CompressedTileColumnBytes >= info.TileColumnBytes {
		t.Errorf("compression did not shrink: %+v", info)
	}
	paths := tbl.ExtractedPaths()
	if len(paths) != 8 || len(paths[0]) == 0 {
		t.Errorf("extracted paths: %v", paths)
	}
	// Dates must be detected as Timestamp.
	found := false
	for _, c := range paths[0] {
		if strings.HasPrefix(c, "date ") && strings.Contains(c, "Timestamp") {
			found = true
		}
	}
	if !found {
		t.Errorf("date column not detected: %v", paths[0])
	}
}

func TestLoadReader(t *testing.T) {
	input := "{\"a\":1}\n\n{\"a\":2}\n  {\"a\":3}\n"
	tbl, err := LoadReader("r", strings.NewReader(input), opts())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Errorf("rows = %d", tbl.NumRows())
	}
}

func TestQueryErrors(t *testing.T) {
	tbl, _ := Load("t", docs(`{"a":1}`), opts())
	if _, err := tbl.Query("not an expression").Run(); err == nil {
		t.Error("bad access expression accepted")
	}
	if _, err := tbl.Query("data->>'a'").WhereCmp(9, Eq, 1).Run(); err == nil {
		t.Error("out-of-range filter column accepted")
	}
	if _, err := tbl.Query("data->>'a'").OrderBy(7, false).Run(); err == nil {
		t.Error("out-of-range order column accepted")
	}
	if _, err := tbl.Query("data->>'a'").WhereCmp(0, Eq, struct{}{}).Run(); err == nil {
		t.Error("unsupported constant accepted")
	}
}

func TestTimestampRoundTrip(t *testing.T) {
	tbl, _ := Load("t", docs(
		`{"ts":"2020-06-01 10:00:00"}`,
		`{"ts":"2020-06-02 10:00:00"}`,
	), opts())
	res, err := tbl.Query("data->>'ts'::Timestamp").Run()
	if err != nil {
		t.Fatal(err)
	}
	v := res.Value(0, 0)
	if v.IsNull() || v.Time().Year() != 2020 || v.Time().Month() != 6 {
		t.Errorf("timestamp = %v", v)
	}
}

func TestThreeWayJoin(t *testing.T) {
	region := docs(
		`{"rid":0,"rname":"EU"}`,
		`{"rid":1,"rname":"US"}`,
	)
	var nations, customers [][]byte
	for i := 0; i < 6; i++ {
		nations = append(nations, []byte(fmt.Sprintf(`{"nid":%d,"region":%d}`, i, i%2)))
	}
	for i := 0; i < 60; i++ {
		customers = append(customers, []byte(fmt.Sprintf(`{"cid":%d,"nation":%d,"bal":%d}`, i, i%6, i)))
	}
	rTbl, _ := Load("region", region, opts())
	nTbl, _ := Load("nation", nations, opts())
	cTbl, _ := Load("customer", customers, opts())

	res, err := cTbl.Query("data->>'cid'::BigInt", "data->>'nation'::BigInt", "data->>'bal'::BigInt").
		Join(nTbl, []string{"data->>'nid'::BigInt", "data->>'region'::BigInt"}, 1, 0).
		Join(rTbl, []string{"data->>'rid'::BigInt", "data->>'rname'"}, 4, 0).
		GroupBy(6).
		Aggregate(CountAll("customers"), Sum(2, "total_bal")).
		OrderBy(0, false).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("regions = %d\n%s", res.NumRows(), res)
	}
	if res.Value(0, 0).Text() != "EU" || res.Value(0, 1).Int64() != 30 {
		t.Errorf("EU row wrong:\n%s", res)
	}
	total := res.Value(0, 2).Int64() + res.Value(1, 2).Int64()
	if total != 59*60/2 {
		t.Errorf("balance sum = %d", total)
	}
}
