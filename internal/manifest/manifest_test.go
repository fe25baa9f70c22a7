package manifest

import "testing"

func testManifest() *Manifest {
	return &Manifest{
		Version: 3,
		NextID:  5,
		Segments: []Segment{
			{ID: 1, File: SegmentFileName(1), Rows: 100, Bytes: 4096},
			{ID: 4, File: SegmentFileName(4), Rows: 25, Bytes: 1024},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := testManifest()
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Version != m.Version || got.NextID != m.NextID || len(got.Segments) != len(m.Segments) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	for i, s := range got.Segments {
		if s != m.Segments[i] {
			t.Fatalf("segment %d: %+v vs %+v", i, s, m.Segments[i])
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := testManifest().Encode()
	cases := map[string][]byte{
		"empty":        nil,
		"no header":    []byte("{}"),
		"bad magic":    append([]byte("XXMAN001 0000000000000000\n"), enc[26:]...),
		"flipped body": append(append([]byte{}, enc[:len(enc)-1]...), enc[len(enc)-1]^1),
		"truncated":    enc[:len(enc)/2],
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

func TestDecodeRejectsInconsistentSegments(t *testing.T) {
	cases := []*Manifest{
		{Version: 1, NextID: 1, Segments: []Segment{{ID: 1, File: SegmentFileName(1)}}},           // id >= next_id
		{Version: 1, NextID: 5, Segments: []Segment{{ID: 1, File: "other.seg"}}},                  // wrong name
		{Version: 1, NextID: 5, Segments: []Segment{{ID: 1, File: SegmentFileName(1), Rows: -1}}}, // negative rows
		{Version: 1, NextID: 5, Segments: []Segment{
			{ID: 1, File: SegmentFileName(1)}, {ID: 1, File: SegmentFileName(1)},
		}}, // duplicate
	}
	for i, m := range cases {
		if _, err := Decode(m.Encode()); err == nil {
			t.Errorf("case %d: Decode accepted inconsistent manifest", i)
		}
	}
}

func TestSegmentFileName(t *testing.T) {
	if got := SegmentFileName(42); got != "seg-000042.seg" {
		t.Fatalf("SegmentFileName(42) = %q", got)
	}
	if !IsSegmentFileName("seg-000042.seg") || IsSegmentFileName("MANIFEST") {
		t.Fatal("IsSegmentFileName misclassifies")
	}
}
