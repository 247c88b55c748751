package shard

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/packed"
)

// TestSaveDirOpenDirBitIdentity is the persistence half of the sharded
// index's acceptance gate: an index reloaded from disk — shard
// snapshots mmapped straight into serving — answers every query with the
// same result set and the same aggregate Stats as the index that was
// saved, across traversals and quantization tiers.
func TestSaveDirOpenDirBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	const d, n = 3, 800
	defer knn.SetQuantMode(knn.SetQuantMode(knn.QuantNone)) // restore on exit
	t.Run("sstree", func(t *testing.T) {
		items := randItems(rng, d, n, 3)
		built, err := Build(items, d, Options{Shards: 3, MaxFill: 16, Algorithm: knn.HS})
		if err != nil {
			t.Fatal(err)
		}
		defer built.Close()
		dir := t.TempDir()
		if err := built.SaveDir(dir); err != nil {
			t.Fatalf("SaveDir: %v", err)
		}
		for _, mode := range []struct {
			name string
			o    OpenOptions
		}{
			{"mmap", OpenOptions{Algorithm: knn.HS}},
			{"verify", OpenOptions{Algorithm: knn.HS, Verify: true}},
		} {
			loaded, err := OpenDir(dir, mode.o)
			if err != nil {
				t.Fatalf("OpenDir(%s): %v", mode.name, err)
			}
			if loaded.Len() != built.Len() || loaded.Dim() != d || loaded.Shards() != built.Shards() {
				t.Fatalf("%s: loaded n=%d dim=%d shards=%d, want n=%d dim=%d shards=%d",
					mode.name, loaded.Len(), loaded.Dim(), loaded.Shards(),
					built.Len(), d, built.Shards())
			}
			if !reflect.DeepEqual(loaded.ShardSizes(), built.ShardSizes()) {
				t.Fatalf("%s: shard sizes %v, want %v", mode.name, loaded.ShardSizes(), built.ShardSizes())
			}
			for _, quant := range []knn.QuantMode{knn.QuantNone, knn.QuantF32, knn.QuantI8} {
				knn.SetQuantMode(quant)
				for q := 0; q < 12; q++ {
					sq := randQuery(rng, d, 3)
					k := 1 + rng.Intn(12)
					want := built.Search(sq, k)
					got := loaded.Search(sq, k)
					ctx := mode.name + "/" + quant.String()
					sameItems(t, ctx, got.Items, want.Items)
					if got.Stats != want.Stats {
						t.Fatalf("%s: stats %+v, want %+v", ctx, got.Stats, want.Stats)
					}
				}
			}
			knn.SetQuantMode(knn.QuantNone)
			loaded.Close()
			loaded.Close() // double Close is safe
		}
	})
}

// TestSaveDirEmptyShards: with fewer items than shards some shards are
// empty; the directory still has one snapshot per shard and reloads into
// an equivalent index.
func TestSaveDirEmptyShards(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for _, n := range []int{0, 1, 3} {
		items := randItems(rng, 2, n, 2)
		built, err := Build(items, 2, Options{Shards: 4, Algorithm: knn.HS})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := built.SaveDir(dir); err != nil {
			t.Fatalf("n=%d: SaveDir: %v", n, err)
		}
		for i := 0; i < 4; i++ {
			if _, err := os.Stat(filepath.Join(dir, shardFileName(i))); err != nil {
				t.Fatalf("n=%d: missing %s: %v", n, shardFileName(i), err)
			}
		}
		loaded, err := OpenDir(dir, OpenOptions{Algorithm: knn.HS})
		if err != nil {
			t.Fatalf("n=%d: OpenDir: %v", n, err)
		}
		if loaded.Len() != n {
			t.Fatalf("n=%d: loaded %d items", n, loaded.Len())
		}
		for q := 0; q < 3; q++ {
			sq := randQuery(rng, 2, 2)
			want := built.Search(sq, 5)
			got := loaded.Search(sq, 5)
			sameItems(t, "empty-shards", got.Items, want.Items)
		}
		loaded.Close()
		built.Close()
	}
}

// TestSaveDirManifest pins the manifest schema: format, dim and per-shard
// files — and neither a partition plan nor a substrate.
func TestSaveDirManifest(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	items := randItems(rng, 4, 500, 2)
	built, err := Build(items, 4, Options{Shards: 5, MaxFill: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if m.Format != manifestFormat || m.Dim != 4 || m.Items != 500 || m.MaxFill != 16 {
		t.Fatalf("manifest header %+v", m)
	}
	if len(m.Shards) != 5 {
		t.Fatalf("%d shard entries", len(m.Shards))
	}
	total := 0
	for i, s := range m.Shards {
		if s.File != shardFileName(i) {
			t.Fatalf("shard %d file %q", i, s.File)
		}
		total += s.Items
	}
	if total != 500 {
		t.Fatalf("shard items sum to %d", total)
	}
	for _, key := range []string{`"plan"`, `"substrate"`} {
		if strings.Contains(string(data), key) {
			t.Errorf("manifest still carries %s:\n%s", key, data)
		}
	}
}

// TestOpenDirManifestWithPlan opens a directory whose manifest carries the
// keys earlier builds wrote — the partition plan and the substrate name —
// and both are ignored: the index answers like the one saved.
func TestOpenDirManifestWithPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	items := randItems(rng, 3, 600, 2)
	built, err := Build(items, 3, Options{Shards: 3, Algorithm: knn.HS})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The split tree as those builds serialised it: internal nodes with a
	// cut, leaves with only their shard.
	const plan = `"plan": {"dim": 1, "cut": 0.25, "shard": 0,
    "left": {"shard": 0},
    "right": {"dim": 2, "cut": -0.5, "shard": 0, "left": {"shard": 1}, "right": {"shard": 2}}}`
	data = []byte(strings.Replace(string(data), `"shards": [`, plan+`,
  "substrate": "sstree",
  "shards": [`, 1))
	if !strings.Contains(string(data), `"plan"`) || !strings.Contains(string(data), `"substrate"`) {
		t.Fatal("test manifest lacks the plan or the substrate key")
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenDir(dir, OpenOptions{Algorithm: knn.HS, Verify: true})
	if err != nil {
		t.Fatalf("OpenDir over a manifest with a plan and a substrate: %v", err)
	}
	defer loaded.Close()
	if !reflect.DeepEqual(loaded.ShardSizes(), built.ShardSizes()) {
		t.Fatalf("shard sizes %v, want %v", loaded.ShardSizes(), built.ShardSizes())
	}
	for q := 0; q < 20; q++ {
		sq := randQuery(rng, 3, 2)
		want, got := built.Search(sq, 7), loaded.Search(sq, 7)
		sameItems(t, "manifest with plan", got.Items, want.Items)
		if got.Stats != want.Stats {
			t.Fatalf("stats %+v, want %+v", got.Stats, want.Stats)
		}
	}
}

// TestOpenDirRejects covers the validation surface: missing or corrupt
// manifests, mismatched metadata, escaping file names, and a corrupted
// shard file under Verify.
func TestOpenDirRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	items := randItems(rng, 3, 200, 2)
	built, err := Build(items, 3, Options{Shards: 2, MaxFill: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	save := func(t *testing.T) string {
		dir := t.TempDir()
		if err := built.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	edit := func(t *testing.T, dir string, f func(m *manifest)) {
		data, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		f(&m)
		out, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    string
	}{
		{"missing manifest", func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, ManifestName))
		}, "no such file"},
		{"garbage manifest", func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, ManifestName), []byte("{nope"), 0o644)
		}, "bad manifest"},
		{"future format", func(t *testing.T, dir string) {
			edit(t, dir, func(m *manifest) { m.Format = 99 })
		}, "manifest format 99"},
		{"bad substrate", func(t *testing.T, dir string) {
			// An earlier build's M-tree shard: substrate byte 41 of the
			// header, under a header CRC (bytes 12-15) recomputed to match.
			p := filepath.Join(dir, shardFileName(1))
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			restamp(data, 2)
			os.WriteFile(p, data, 0o644)
		}, "M-tree snapshot"},
		{"escaping file name", func(t *testing.T, dir string) {
			edit(t, dir, func(m *manifest) { m.Shards[0].File = "../evil.hds" })
		}, "non-local file"},
		{"missing shard file", func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, shardFileName(1)))
		}, "shard 1"},
		{"item count lie", func(t *testing.T, dir string) {
			edit(t, dir, func(m *manifest) { m.Shards[0].Items++ })
		}, "manifest says"},
		{"total lie", func(t *testing.T, dir string) {
			edit(t, dir, func(m *manifest) {
				m.Items++
				m.Shards[0].Items = 0 // keep per-shard check from firing first
				m.Shards[0].File = shardFileName(0)
			})
		}, "manifest says"},
		{"truncated shard file", func(t *testing.T, dir string) {
			p := filepath.Join(dir, shardFileName(0))
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			os.WriteFile(p, data[:len(data)/2], 0o644)
		}, "shard 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := save(t)
			tc.corrupt(t, dir)
			_, err := OpenDir(dir, OpenOptions{})
			if err == nil {
				t.Fatal("OpenDir accepted a corrupt directory")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A flipped payload byte gets through the structural checks only to be
	// caught by the full checksum pass under Verify. Flip a byte inside a
	// named section, the item centers: alignment padding between sections
	// is not checksummed, and where it falls depends on the tree's shape.
	t.Run("bit flip under Verify", func(t *testing.T) {
		dir := save(t)
		p := filepath.Join(dir, shardFileName(0))
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		off, ln := sectionRange(t, data, sectionICenters)
		data[off+ln/2] ^= 0x01
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDir(dir, OpenOptions{Verify: true}); err == nil {
			t.Fatal("Verify missed a flipped payload byte")
		} else if !strings.Contains(err.Error(), packed.ErrChecksum.Error()) {
			t.Fatalf("error %q is not a checksum error", err)
		}
	})
}

// restamp sets the substrate byte of a snapshot file's header and
// recomputes the header CRC over the fixed header and the section table
// (header word 16 is their length), with the CRC field itself zeroed.
func restamp(data []byte, substrate byte) {
	le := binary.LittleEndian
	data[41] = substrate
	hdr := data[:le.Uint32(data[16:])]
	le.PutUint32(hdr[12:], 0)
	le.PutUint32(hdr[12:], crc32.Checksum(hdr, crc32.MakeTable(crc32.Castagnoli)))
}

// sectionICenters is the snapshot section holding the item centers
// (packed's section table, internal/packed/snapshot.go).
const sectionICenters = 10

// sectionRange returns the byte range of section id in a snapshot file: its
// table follows the 72-byte fixed header, whose word at byte 44 counts the
// entries, each 24 bytes of {id u32, crc u32, offset u64, length u64}.
func sectionRange(t *testing.T, data []byte, id uint32) (off, ln uint64) {
	t.Helper()
	le := binary.LittleEndian
	for i := 0; i < int(le.Uint32(data[44:])); i++ {
		if e := data[72+24*i:]; le.Uint32(e) == id {
			return le.Uint64(e[8:]), le.Uint64(e[16:])
		}
	}
	t.Fatalf("section %d not present", id)
	return 0, 0
}

// TestSaveDirOverwrite: saving twice into the same directory is fine, a
// reload after the second save serves the second index, and a save of
// fewer shards leaves none of the first save's extra shard files behind.
func TestSaveDirOverwrite(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dir := t.TempDir()
	first, err := Build(randItems(rng, 2, 100, 1), 2, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	first.Close()
	second, err := Build(randItems(rng, 2, 150, 1), 2, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := second.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenDir(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != 150 {
		t.Fatalf("reload has %d items, want 150", loaded.Len())
	}
	// No stray temp files survive the atomic writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("stray temp file %s", e.Name())
		}
	}

	// Five shards, then two: the directory holds the manifest and the two
	// new shard files, nothing else. A file that only looks like a shard
	// file is not SaveDir's to remove.
	t.Run("fewer shards", func(t *testing.T) {
		dir := t.TempDir()
		items := randItems(rng, 2, 100, 1)
		for _, shards := range []int{5, 2} {
			x, err := Build(items, 2, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := x.SaveDir(dir); err != nil {
				t.Fatal(err)
			}
			x.Close()
		}
		if err := os.WriteFile(filepath.Join(dir, "shard-7.hds"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := OpenDir(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		if loaded.Shards() != 2 || loaded.Len() != 100 {
			t.Fatalf("reload has %d shards, %d items; want 2, 100", loaded.Shards(), loaded.Len())
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if want := []string{ManifestName, shardFileName(0), shardFileName(1), "shard-7.hds"}; !slices.Equal(names, want) {
			t.Fatalf("directory holds %v, want %v", names, want)
		}
	})
}

// TestSaveDirReportsManifestErrors: a step of the manifest's durable replace
// that fails is SaveDir's error, not a nil with no manifest on disk.
func TestSaveDirReportsManifestErrors(t *testing.T) {
	x, err := Build(randItems(rand.New(rand.NewSource(78)), 2, 60, 1), 2, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	// The shard files save; the manifest cannot be renamed over a non-empty
	// directory of its name.
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, ManifestName, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := x.SaveDir(dir); err == nil {
		t.Error("manifest rename failed: SaveDir returned nil")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("stray temp file %s after a failed save", e.Name())
		}
	}

	// Every rename succeeds and only the directory fsync cannot happen.
	t.Run("unreadable directory", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("root opens unreadable directories")
		}
		locked := filepath.Join(t.TempDir(), "locked")
		if err := os.Mkdir(locked, 0o300); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(locked, 0o700)
		if err := x.SaveDir(locked); err == nil {
			t.Error("directory that cannot be opened for fsync: SaveDir returned nil")
		}
	})
}

// TestCloseWaitsForSearches races eight searching goroutines against one
// Close of an mmap-backed index. A search that got in before Close reads
// mapped pages to its end and answers correctly; one that comes after
// panics with the lifecycle message instead of touching unmapped memory —
// a fault there would kill the test binary, and -race watches the hand-off.
func TestCloseWaitsForSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const d, n, k = 3, 2000, 8
	items := randItems(rng, d, n, 2)
	built, err := Build(items, d, Options{Shards: 4, Algorithm: knn.HS})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	sq := randQuery(rng, d, 1)
	want := built.Search(sq, k).IDs()
	built.Close()

	x, err := OpenDir(dir, OpenOptions{Algorithm: knn.HS})
	if err != nil {
		t.Fatal(err)
	}
	var started atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != "shard: search on a closed Index" {
					t.Errorf("searcher stopped by %v, want the closed-Index panic", r)
				}
			}()
			for {
				started.Add(1)
				if got := x.Search(sq, k).IDs(); !slices.Equal(got, want) {
					t.Errorf("answer %v while closing, want %v", got, want)
					return
				}
			}
		}()
	}
	for started.Load() < 64 {
		runtime.Gosched()
	}
	x.Close()
	wg.Wait()
	x.Close() // and again: harmless
}

// savedFiles builds items under the given GOMAXPROCS, saves the index and
// returns every file of the directory by name.
func savedFiles(t *testing.T, procs int, items []geom.Item, d int, opts Options) map[string][]byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	x, err := Build(items, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	dir := t.TempDir()
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestBuildIsScheduleIndependent: shards are built side by side, and what
// each freezes to must not depend on how many ran at once — one at a time
// (GOMAXPROCS 1), all at once, or five shards queueing for four slots. Every
// file SaveDir writes, manifest included, is compared byte for byte. A build
// that is refused is refused before anything is started.
func TestBuildIsScheduleIndependent(t *testing.T) {
	const d, n = 3, 1500
	items := randItems(rand.New(rand.NewSource(22)), d, n, 3)
	for _, shards := range []int{1, 2, 5} {
		opts := Options{Shards: shards, MaxFill: 12}
		one := savedFiles(t, 1, items, d, opts)
		four := savedFiles(t, 4, items, d, opts)
		if len(one) != shards+1 || len(four) != len(one) {
			t.Fatalf("%d shards: %d and %d files, want %d", shards, len(one), len(four), shards+1)
		}
		for name, want := range one {
			if got, ok := four[name]; !ok || !slices.Equal(got, want) {
				t.Errorf("%d shards: %s differs between GOMAXPROCS 1 and 4", shards, name)
			}
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	bad := append(slices.Clone(items[:100]), geom.Item{ID: -1, Sphere: geom.Sphere{Center: []float64{1, 2}, Radius: 1}})
	for want, build := range map[string]func() (*Index, error){
		"shard: item 100 (id -1): 2-dimensional sphere, index is 3-dimensional": func() (*Index, error) { return Build(bad, d, Options{Shards: 5}) },
		"shard: dim = 0": func() (*Index, error) { return Build(items, 0, Options{Shards: 5}) },
	} {
		if _, err := build(); err == nil || err.Error() != want {
			t.Errorf("err = %v, want %s", err, want)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after the refusal, %d before", want, after, before)
		}
	}
}
