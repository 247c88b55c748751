package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hyperdom/internal/dataset"
	"hyperdom/internal/geom"
	"hyperdom/internal/packed"
)

func TestParseFlagsDefaults(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.addr != ":8080" || c.shards != 2 || c.oracle {
		t.Fatalf("defaults %+v", c)
	}
}

// TestParseFlagsRejectsBadEnums: what used to be enum knobs with one value in
// use are constants now, so every spelling — the typos this test has always
// rejected and the once-valid values alike — fails as an undefined flag.
func TestParseFlagsRejectsBadEnums(t *testing.T) {
	for _, args := range [][]string{
		{"-algo", "bfs"}, {"-quant", "f16"}, {"-substrate", "sstre"}, {"-substrate", ""},
		{"-algo", "df"}, {"-quant", "i8"}, {"-substrate", "mtree"}, {"-maxfill", "8"},
	} {
		if _, err := parseFlags(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: error %v, want flag provided but not defined", args, err)
		}
	}
}

func TestParseCollections(t *testing.T) {
	got, err := parseCollections("a=x.csv,b=y.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != [2]string{"a", "x.csv"} || got[1] != [2]string{"b", "y.csv"} {
		t.Fatalf("got %v", got)
	}
	if _, err := parseCollections("broken"); err == nil {
		t.Fatal("missing = accepted")
	}
	if got, err := parseCollections(""); err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
	for _, bad := range []string{`a"b=x.csv`, "../../x=y.csv", "a=x.csv,..=y.csv", "a/b=x.csv"} {
		if got, err := parseCollections(bad); err == nil {
			t.Errorf("%q: accepted as %v, want a bad-name error", bad, got)
		}
	}
}

// TestBadCollectionNameWritesNothing: a -collections name is checked before
// any collection is built, so a start with "../../x" fails without writing
// a snapshot anywhere — neither the default collection's under -snapshot-dir
// nor one two levels above it. (The last entry's corpus is missing, so a
// build that checks no name still fails the start rather than serving.)
func TestBadCollectionNameWritesNothing(t *testing.T) {
	root := t.TempDir()
	csv := filepath.Join(root, "c.csv")
	if err := os.WriteFile(csv, []byte("1,0.5,1,2\n2,0.5,3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snaps := filepath.Join(root, "a", "b")
	c := config{addr: "localhost:0", n: 100, d: 2, seed: 1, shards: 1,
		snapshotDir: snaps, collections: "../../x=" + csv + ",y=" + filepath.Join(root, "missing.csv")}
	if err := run(c); err == nil {
		t.Fatal("run accepted the collection name ../../x")
	}
	for _, dir := range []string{snaps, filepath.Join(root, "x")} {
		if _, err := os.Stat(dir); err == nil {
			t.Errorf("%s written by a start that must fail first", dir)
		}
	}
}

func TestParseCenter(t *testing.T) {
	got, err := parseCenter("1, 2.5,-3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2.5 || got[2] != -3 {
		t.Fatalf("got %v", got)
	}
	if _, err := parseCenter(""); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := parseCenter("1,x"); err == nil {
		t.Fatal("junk accepted")
	}
}

// TestOracleRoundTrip drives the -oracle path end to end: write a corpus,
// query it, and check the printed IDs against an in-process search over
// the same items.
func TestOracleRoundTrip(t *testing.T) {
	items := syntheticCorpus(200, 3, 7)
	path := filepath.Join(t.TempDir(), "corpus.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, items); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := filepath.Join(t.TempDir(), "out.json")
	of, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	c := config{data: path, oracle: true, k: 5, query: "100,100,100", qradius: 0.5}
	if err := runOracle(c, of); err != nil {
		t.Fatal(err)
	}
	of.Close()
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(raw), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) < 5 {
		t.Fatalf("oracle returned %d ids: %v", len(got.IDs), got.IDs)
	}

	// A query the server would answer 400 is a one-line error here, not a
	// panic in knn.Search or geom, and not an answer.
	for _, tc := range []struct {
		k       int
		query   string
		qradius float64
		want    string
	}{
		{5, "100,100,100", -1, "bad -query/-qradius"},
		{5, "100,100,100", math.NaN(), "bad -query/-qradius"},
		{5, "100,100,100", math.Inf(1), "bad -query/-qradius"},
		{5, "NaN,100,100", 0.5, "bad -query/-qradius"},
		{0, "100,100,100", 0.5, "bad -k 0"},
	} {
		c.k, c.query, c.qradius = tc.k, tc.query, tc.qradius
		if err := runOracle(c, of); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-k %d -query %s -qradius %v: error %v, want %s", tc.k, tc.query, tc.qradius, err, tc.want)
		}
	}
}

// invertFirstBox swaps the lo and hi of the first child box in snapshot bytes
// b: section 23 of the table of 24-byte {id, crc, off, len} entries at byte 72.
func invertFirstBox(b []byte) {
	le := binary.LittleEndian
	for e := 72; e < 72+24*int(le.Uint32(b[44:])); e += 24 {
		if le.Uint32(b[e:]) == 23 {
			off := le.Uint64(b[e+8:])
			lo, hi := le.Uint32(b[off:]), le.Uint32(b[off+4:])
			le.PutUint32(b[off:], hi)
			le.PutUint32(b[off+4:], lo)
			return
		}
	}
	panic("snapshot has no child-box section")
}

// restampMTree marks a snapshot file as an earlier build's M-tree snapshot:
// substrate byte 41 of the header set to 2, and the header CRC (bytes
// 12-15, over the header and the section table, whose length is the word at
// byte 16) recomputed with the CRC field zeroed.
func restampMTree(b []byte) {
	le := binary.LittleEndian
	b[41] = 2
	hdr := b[:le.Uint32(b[16:])]
	le.PutUint32(hdr[12:], 0)
	le.PutUint32(hdr[12:], crc32.Checksum(hdr, crc32.MakeTable(crc32.Castagnoli)))
}

// TestMountRebuildsUnusableSnapshot exercises the path that makes a snapshot
// format bump safe in production: a snapshot directory this build cannot use
// (files of the previous format version; an M-tree's; a corrupted payload
// under -snapshot-verify; an inverted child box with or without it) is
// rebuilt from the corpus and saved over, the rebuilt collection answers
// like the original, and the next start loads the rewritten files without
// touching the corpus.
func TestMountRebuildsUnusableSnapshot(t *testing.T) {
	le := binary.LittleEndian
	for _, tc := range []struct {
		name   string
		verify bool
		damage func(b []byte)
	}{
		// [8,12) is the format version; the first section entry's offset
		// lives 8 bytes into the table at byte 72 (packed/snapshot.go).
		{"previous format version", false, func(b []byte) { le.PutUint32(b[8:], packed.FormatVersion-1) }},
		{"M-tree substrate", false, restampMTree},
		{"payload byte flip", true, func(b []byte) { b[le.Uint64(b[72+8:])] ^= 0x01 }},
		// The one payload damage an unverified open must catch too: the walk
		// prunes on the child boxes, so an inverted one would lose answers.
		{"inverted child box", false, invertFirstBox},
		{"inverted child box, verified", true, invertFirstBox},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := config{snapshotDir: t.TempDir(), snapshotVerify: tc.verify, shards: 2}
			builds := 0
			corpus := func() ([]geom.Item, int, error) {
				builds++
				return syntheticCorpus(600, 3, 11), 3, nil
			}
			queries := syntheticCorpus(8, 3, 12)
			answers := func() [][]int {
				t.Helper()
				x, err := mountCollection(c, "default", corpus)
				if err != nil {
					t.Fatal(err)
				}
				defer x.Close()
				out := make([][]int, len(queries))
				for i, q := range queries {
					for _, it := range x.Search(q.Sphere, 5).Items {
						out[i] = append(out[i], it.ID)
					}
				}
				return out
			}
			files := func() []string {
				t.Helper()
				fs, err := filepath.Glob(filepath.Join(c.snapshotDir, "default", "*.hds"))
				if err != nil || len(fs) != c.shards {
					t.Fatalf("shard files %v, err %v", fs, err)
				}
				return fs
			}

			fresh := answers()
			if builds != 1 {
				t.Fatalf("first mount built %d times", builds)
			}
			for _, f := range files() {
				b, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				tc.damage(b)
				if err := os.WriteFile(f, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			if got := answers(); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("answers after the rebuild %v, fresh build %v", got, fresh)
			}
			if builds != 2 {
				t.Fatalf("mount over an unusable snapshot built %d times in all, want 2", builds)
			}
			for _, f := range files() {
				snap, err := packed.Open(f, packed.VerifyChecksums())
				if err != nil {
					t.Fatalf("rewritten %s: %v", f, err)
				}
				snap.Close()
			}

			if got := answers(); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("answers off the rewritten snapshot %v, fresh build %v", got, fresh)
			}
			if builds != 2 {
				t.Fatalf("mount over the rewritten snapshot rebuilt (builds=%d)", builds)
			}
		})
	}
}
