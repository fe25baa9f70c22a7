package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/jsongen"
	"repro/internal/jsontape"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
)

// Tape-vs-tree conformance (DESIGN.md §6.8): for every storage format
// and several worker counts, loading through the structural tape must
// answer exactly what the parsed jsonvalue trees say — the reference
// the tape parser is held to.

// tapeConfSample derives a handful of typed accesses from the
// documents, plus one absent path.
func tapeConfSample(r *rand.Rand, docs []jsonvalue.Value) []Access {
	type cand struct {
		path keypath.Path
		t    expr.SQLType
	}
	var cands []cand
	seen := map[string]bool{}
	for _, d := range docs {
		keypath.Collect(d, 4, func(p keypath.Path, vt keypath.ValueType, v jsonvalue.Value) {
			enc := p.Encode()
			if seen[enc] {
				return
			}
			seen[enc] = true
			var st expr.SQLType
			switch vt {
			case keypath.TypeBigInt:
				st = expr.TBigInt
			case keypath.TypeDouble:
				st = expr.TFloat
			case keypath.TypeBool:
				st = expr.TBool
			default:
				st = expr.TText
			}
			cands = append(cands, cand{path: p, t: st})
		})
	}
	r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > 5 {
		cands = cands[:5]
	}
	cands = append(cands, cand{path: keypath.NewPath("definitely", "absent"), t: expr.TBigInt})
	accesses := make([]Access, len(cands))
	for i, c := range cands {
		accesses[i] = NewAccessPath(c.t, c.path)
	}
	return accesses
}

// normRowMultiset collects a relation's row scan as a multiset with
// container cells canonicalized.
func normRowMultiset(rel Relation, accesses []Access, workers int) map[string]int {
	got := map[string]int{}
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	rel.Scan(accesses, workers, func(w int, row []expr.Value) {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = normalizeCell(v.String())
		}
		key := joinRow(cells)
		<-mu
		got[key]++
		mu <- struct{}{}
	})
	return got
}

func TestTapeMatchesTreeAllFormats(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		nDocs := 24 + r.Intn(72)
		docs := make([]jsonvalue.Value, nDocs)
		docLines := make([][]byte, nDocs)
		for i := range docs {
			docs[i] = jsongen.RandomObject(r, 3)
			docLines[i] = jsontext.Serialize(docs[i])
		}
		accesses := tapeConfSample(r, docs)

		// Truth straight from the trees, as in
		// TestConformanceRandomDocsAllFormats.
		truthSet := map[string]int{}
		wantRaw := map[string]int{}
		for _, d := range docs {
			cells := make([]string, len(accesses))
			for ai, a := range accesses {
				cells[ai] = normalizeCell(valueAccess(d, a.Path, a.Type).String())
			}
			truthSet[joinRow(cells)]++
			wantRaw[string(jsonb.Encode(d))]++
		}

		for _, k := range allKinds() {
			for _, workers := range []int{1, 4} {
				cfg := DefaultLoaderConfig()
				cfg.Tile.TileSize = 16
				l, _ := NewLoader(k, cfg)
				rel, err := l.Load("conf", docLines, workers)
				if err != nil {
					t.Fatalf("trial %d %s w%d: %v", trial, k, workers, err)
				}
				verifyConformance(t, trial, string(k)+"-tape", rel, accesses, truthSet)

				if k != KindTiles {
					continue
				}
				// The tiles' JSONB raw storage must hold each tree's
				// binary encoding byte for byte (reordering permutes
				// rows, so compare per-row multisets).
				gotRaw := map[string]int{}
				for _, tl := range rel.(TileIntrospector).Tiles() {
					for i := 0; i < tl.NumRows(); i++ {
						gotRaw[string(tl.RawBytes(i))]++
					}
				}
				if !reflect.DeepEqual(gotRaw, wantRaw) {
					t.Fatalf("trial %d w%d: tile raw storage differs from jsonb.Encode of the trees", trial, workers)
				}

				// Segment round trip of the tape-loaded relation.
				segPath := filepath.Join(t.TempDir(), "tape.seg")
				if err := WriteSegmentFile(segPath, rel); err != nil {
					t.Fatalf("trial %d segment write: %v", trial, err)
				}
				srel, err := OpenSegmentFile("conf", segPath, bufpool.New(0), cfg)
				if err != nil {
					t.Fatalf("trial %d segment open: %v", trial, err)
				}
				verifyConformance(t, trial, "tape-segment", srel, accesses, truthSet)
				if err := srel.Err(); err != nil {
					t.Fatalf("trial %d segment scan: %v", trial, err)
				}
				if err := srel.Close(); err != nil {
					t.Fatalf("trial %d segment close: %v", trial, err)
				}
			}
		}
	}
}

// TestTapeLimitFallback checks what replaced the tree fallback: with
// the tape limits shrunk, a load holding over-limit documents at
// indexes 5 and 2 fails on every format and worker count with the
// lowest index and the tape-limit error, and ValidateDoc (the
// insert-time check) rejects such a document.
func TestTapeLimitFallback(t *testing.T) {
	docLines := make([][]byte, 12)
	for i := range docLines {
		docLines[i] = []byte(fmt.Sprintf(`{"id":%d,"ok":true}`, i))
	}
	docLines[5] = []byte(`{"id":5,"blob":"far longer than the shrunk span limit"}`)
	docLines[2] = []byte(`{"id":2,"blob":"also longer than the span limit"}`)

	restore := jsontape.SetLimitsForTesting(16, 1<<20)
	defer restore()
	const want = "document 2: jsontape: string length exceeds tape limits"
	for _, k := range allKinds() {
		for _, workers := range []int{1, 2, 8} {
			l, _ := NewLoader(k, DefaultLoaderConfig())
			_, err := l.Load("lim", docLines, workers)
			if err == nil || err.Error() != want {
				t.Fatalf("%s w%d: error %v, want %q", k, workers, err, want)
			}
		}
	}
	if _, err := BuildTilesStar("lim", docLines, DefaultLoaderConfig(), 2, keypath.NewPath("id")); err == nil || err.Error() != want {
		t.Fatalf("BuildTilesStar: error %v, want %q", err, want)
	}

	if err := ValidateDoc(docLines[2]); !jsontape.IsLimit(err) {
		t.Fatalf("ValidateDoc over the limit: %v, want a tape-limit error", err)
	}
	if err := ValidateDoc(docLines[0]); err != nil {
		t.Fatalf("ValidateDoc under the limit: %v", err)
	}
	if err := ValidateDoc([]byte(`{"bad":`)); err == nil {
		t.Fatal("ValidateDoc accepted malformed input")
	}
}

// TestParseErrorDeterminism locks the reported load error to the
// lowest failing document index — with its byte offset — regardless of
// format or worker count.
func TestParseErrorDeterminism(t *testing.T) {
	docLines := make([][]byte, 64)
	for i := range docLines {
		docLines[i] = []byte(`{"ok":true}`)
	}
	// Failures at 9, 17, and 41: index 9 must always win.
	docLines[41] = []byte(`{"x":}`)
	docLines[9] = []byte(`{"key": tru}`)
	docLines[17] = []byte(`[1,2,`)

	var want string
	for _, k := range allKinds() {
		for _, workers := range []int{1, 2, 8} {
			l, _ := NewLoader(k, DefaultLoaderConfig())
			_, err := l.Load("bad", docLines, workers)
			if err == nil {
				t.Fatalf("%s w%d: expected error", k, workers)
			}
			msg := err.Error()
			if !strings.Contains(msg, "document 9") {
				t.Fatalf("%s w%d: error %q does not report document 9", k, workers, msg)
			}
			if !strings.Contains(msg, "offset") {
				t.Fatalf("%s w%d: error %q has no byte offset", k, workers, msg)
			}
			if want == "" {
				want = msg
			} else if msg != want {
				t.Fatalf("%s w%d: error %q differs from %q", k, workers, msg, want)
			}
		}
	}
}
