package packed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"
)

// TestSectionTableCoversTree: ids strictly ascending, and every slice the
// Tree (or its quant tiers) holds is the column of exactly one entry — a
// field added without one fails here rather than silently not persisting.
func TestSectionTableCoversTree(t *testing.T) {
	for i := 1; i < len(sections); i++ {
		if sections[i].id <= sections[i-1].id {
			t.Errorf("sections[%d].id = %d after %d: not strictly ascending", i, sections[i].id, sections[i-1].id)
		}
	}
	var fields []string
	sliceFields := func(prefix string, v reflect.Value, visit func(name string, f reflect.Value)) {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice {
				visit(prefix+v.Type().Field(i).Name, f)
			}
		}
	}
	walk := func(tr *Tree, visit func(name string, f reflect.Value)) {
		sliceFields("", reflect.ValueOf(tr).Elem(), visit)
		sliceFields("quant.", reflect.ValueOf(&tr.quant).Elem(), visit)
	}
	walk(new(Tree), func(name string, _ reflect.Value) { fields = append(fields, name) })

	filledBy := map[string][]uint32{}
	for _, s := range sections {
		var tr Tree
		s.fill(&tr, make([]byte, 4*s.elem), false)
		walk(&tr, func(name string, f reflect.Value) {
			if !f.IsNil() {
				filledBy[name] = append(filledBy[name], s.id)
			}
		})
	}
	for _, name := range fields {
		if ids := filledBy[name]; len(ids) != 1 {
			t.Errorf("Tree.%s is filled by sections %v, want exactly one", name, ids)
		}
	}
	if len(filledBy) != len(sections) {
		t.Errorf("%d sections fill %d distinct fields", len(sections), len(filledBy))
	}
}

// TestHeaderLayout: the struct encoding/binary walks is the 72 bytes the
// format documents, with the CRC where the checksum steps around it.
func TestHeaderLayout(t *testing.T) {
	if n := binary.Size(header{}); n != fixedHdrLen {
		t.Errorf("binary.Size(header) = %d, want %d", n, fixedHdrLen)
	}
	if n := binary.Size(secEntry{}); n != secEntryLen {
		t.Errorf("binary.Size(secEntry) = %d, want %d", n, secEntryLen)
	}
	if off := unsafe.Offsetof(header{}.CRC); off != hdrCRCOff {
		t.Errorf("header.CRC at offset %d, want %d", off, hdrCRCOff)
	}
}

// TestParentWrittenSnapshots opens one small snapshot per substrate written
// by the commit before the section table existed (datagen -n 120 -d 3 -mu 2
// -seed 5 -maxfill 8 -shards 1) and re-saves it: the table must read that
// build's bytes and write them back unchanged.
func TestParentWrittenSnapshots(t *testing.T) {
	for _, sub := range []Substrate{SubstrateSSTree, SubstrateMTree, SubstrateRTree} {
		t.Run(sub.String(), func(t *testing.T) {
			path := filepath.Join("testdata", "v3-"+sub.String()+".hds")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range [][]OpenOption{nil, {VerifyChecksums()}, {NoMmap()}} {
				s, err := Open(path, opts...)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				if s.Tree.Substrate() != sub || s.Tree.Len() != 120 {
					t.Errorf("opened a %v tree of %d items", s.Tree.Substrate(), s.Tree.Len())
				}
				if got := snapshotBytes(t, s.Tree); !bytes.Equal(got, want) {
					t.Errorf("re-saved snapshot differs from the file (%d vs %d bytes)", len(got), len(want))
				}
				s.Close()
			}
		})
	}
}

// removeDirThenWrite deletes the directory it is being saved into before
// producing its bytes.
type removeDirThenWrite struct{ dir string }

func (r removeDirThenWrite) WriteTo(w io.Writer) (int64, error) {
	if err := os.RemoveAll(r.dir); err != nil {
		return 0, err
	}
	n, err := w.Write([]byte("late"))
	return int64(n), err
}

type failingWriter struct{ err error }

func (f failingWriter) WriteTo(io.Writer) (int64, error) { return 0, f.err }

// TestReplaceFileReportsEveryError: a failed step is an error to the caller,
// the old file stays, and no temp file is left behind.
func TestReplaceFileReportsEveryError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := ReplaceFile(path, bytes.NewReader([]byte("old"))); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	if err := ReplaceFile(path, failingWriter{boom}); !errors.Is(err, boom) {
		t.Errorf("failing source: %v, want boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Errorf("after a failed replace the file holds %q, want the old bytes", got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("directory holds %d entries after a failed replace, want only the file", len(ents))
	}

	gone := filepath.Join(dir, "gone")
	if err := os.Mkdir(gone, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ReplaceFile(filepath.Join(gone, "f"), removeDirThenWrite{gone}); err == nil {
		t.Error("directory removed mid-save: ReplaceFile returned nil")
	}

	// The rename succeeds and only the directory fsync cannot happen: the
	// step the manifest writer used to swallow.
	t.Run("unreadable directory", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("root opens unreadable directories")
		}
		locked := filepath.Join(dir, "locked")
		if err := os.Mkdir(locked, 0o300); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(locked, 0o700)
		if err := ReplaceFile(filepath.Join(locked, "f"), bytes.NewReader([]byte("x"))); err == nil {
			t.Error("directory that cannot be opened for fsync: ReplaceFile returned nil")
		}
	})
}
