package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
)

// ManifestName is the directory-level metadata file SaveDir writes next to
// the per-shard snapshot files.
const ManifestName = "manifest.json"

// manifestFormat versions the manifest schema, independently of the packed
// snapshot format the shard files carry (which versions itself).
const manifestFormat = 1

// manifest is the JSON sidecar tying a directory of shard snapshots back
// into one sharded index: which file is which shard, and the build
// parameters a reload must match. Manifests written by earlier builds carry
// a "plan" or a "substrate" key too; decoding ignores both, and a shard
// file of any substrate but the SS-tree is refused by packed.Open.
type manifest struct {
	Format  int             `json:"format"`
	Dim     int             `json:"dim"`
	Items   int             `json:"items"`
	MaxFill int             `json:"max_fill,omitempty"`
	Shards  []manifestShard `json:"shards"`
}

type manifestShard struct {
	File  string `json:"file"`
	Items int    `json:"items"`
}

// shardFileName names shard i's snapshot inside a SaveDir directory.
func shardFileName(i int) string { return fmt.Sprintf("shard-%04d.hds", i) }

// SaveDir persists the index into dir: one packed snapshot per shard
// (shard-0000.hds, shard-0001.hds, ...) plus a manifest.json carrying the
// dimensionality and per-shard item counts. Each file is written with
// packed.ReplaceFile, so a crash mid-save never leaves a half-written file
// under the final name; the manifest is written last, so a directory with a
// manifest always has all its shard files. Once it is, the shard files of
// an earlier save with more shards are removed. dir is created if missing.
// The index stays fully serveable throughout.
func (x *Index) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	m := manifest{
		Format:  manifestFormat,
		Dim:     x.dim,
		Items:   x.n,
		MaxFill: x.opts.MaxFill,
		Shards:  make([]manifestShard, len(x.trees)),
	}
	for i, snap := range x.trees {
		name := shardFileName(i)
		if err := snap.Save(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("shard: save shard %d: %w", i, err)
		}
		m.Shards[i] = manifestShard{File: name, Items: snap.Len()}
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	if err := packed.ReplaceFile(filepath.Join(dir, ManifestName), bytes.NewReader(append(data, '\n'))); err != nil {
		return fmt.Errorf("shard: save manifest: %w", err)
	}
	return removeStaleShards(dir, len(x.trees))
}

// removeStaleShards deletes the shard files in dir that a save of n shards
// does not name: exactly the names shardFileName gives an index ≥ n.
func removeStaleShards(dir string, n int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	for _, e := range entries {
		var i int
		if _, err := fmt.Sscanf(e.Name(), "shard-%d.hds", &i); err != nil || i < n || shardFileName(i) != e.Name() {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("shard: save: remove stale %s: %w", e.Name(), err)
		}
	}
	return nil
}

// OpenOptions configures OpenDir. The structural build parameters
// (dimensionality, shard count, max fill) come from the manifest, not from
// here — a loaded index must match what was saved. Every shard file is
// opened with packed.Open, so how it is read (mapped or copied) is the
// platform's choice, not an option.
type OpenOptions struct {
	// Algorithm and Label act exactly as in Options (Algorithm: not at
	// all); zero values select the same defaults.
	Algorithm knn.Algorithm
	Label     string
	// Verify forces a full checksum pass over every section of every shard
	// file at open (packed.VerifyChecksums). Off by default on the mmap
	// path, where eager verification would fault in every page and forfeit
	// the lazy-load win; corruption is still caught structurally at open
	// and the header is always checksum-verified.
	Verify bool
}

// OpenDir loads a SaveDir directory into a serving index: the manifest is
// read and validated, every shard snapshot is opened zero-copy (mmap where
// the platform supports it, with an automatic copying fallback). No tree is
// rebuilt and no item is copied on the mmap path — restart-to-ready is bounded by open+validate,
// not by BulkLoad+Freeze. The returned index answers Search bit-identically
// to the index that was saved. Close unmaps the snapshots; callers must
// keep the index (not just its results) alive while results' Center slices
// are in use, as those alias the mapping.
func OpenDir(dir string, opts OpenOptions) (*Index, error) {
	bopts := Options{Label: opts.Label}
	if err := bopts.fill(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: open %s: %w", dir, err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: open %s: bad manifest: %w", dir, err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("shard: open %s: manifest format %d, this build reads %d — rebuild the snapshot directory",
			dir, m.Format, manifestFormat)
	}
	if m.Dim <= 0 || len(m.Shards) == 0 {
		return nil, fmt.Errorf("shard: open %s: manifest dim=%d shards=%d", dir, m.Dim, len(m.Shards))
	}

	bopts.Shards, bopts.MaxFill = len(m.Shards), m.MaxFill

	x := &Index{
		opts:       bopts,
		dim:        m.Dim,
		n:          0,
		histSearch: obs.GetOrNewHistogram("shard.search_latency", `collection="`+bopts.Label+`"`),
		histMerge:  obs.GetOrNewHistogram("shard.merge_latency", `collection="`+bopts.Label+`"`),
	}
	fail := func(err error) (*Index, error) {
		x.Close()
		return nil, err
	}

	x.trees = make([]*packed.Tree, 0, len(m.Shards))
	var popts []packed.OpenOption
	if opts.Verify {
		popts = append(popts, packed.VerifyChecksums())
	}
	for i, ms := range m.Shards {
		if ms.File == "" || filepath.Base(ms.File) != ms.File {
			return fail(fmt.Errorf("shard: open %s: manifest shard %d names non-local file %q", dir, i, ms.File))
		}
		snap, err := packed.Open(filepath.Join(dir, ms.File), popts...)
		if err != nil {
			return fail(fmt.Errorf("shard: open %s shard %d (%s): %w", dir, i, ms.File, err))
		}
		x.snaps = append(x.snaps, snap)
		t := snap.Tree
		if t.Dim() != m.Dim {
			return fail(fmt.Errorf("shard: open %s shard %d: dim %d, manifest says %d", dir, i, t.Dim(), m.Dim))
		}
		if t.Len() != ms.Items {
			return fail(fmt.Errorf("shard: open %s shard %d: %d items, manifest says %d", dir, i, t.Len(), ms.Items))
		}
		x.trees = append(x.trees, t)
		x.n += t.Len()
	}
	if m.Items != x.n {
		return fail(fmt.Errorf("shard: open %s: shards hold %d items, manifest says %d", dir, x.n, m.Items))
	}

	obsIndexes.Inc()
	obsShards.Add(uint64(len(x.trees)))
	// Every snapshot carries both narrow leaf tiers (the header's tier mask
	// is checked at open); the info gauge makes the running format visible
	// per collection.
	obs.SetGauge("snapshot.info",
		fmt.Sprintf(`collection=%q,version="%d",quant="f32+i8"`,
			bopts.Label, packed.FormatVersion), 1)
	return x, nil
}
