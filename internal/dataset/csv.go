package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"hyperdom/internal/geom"
)

// WriteCSV streams items as "id,radius,c1,…,cd" rows — the format
// cmd/datagen emits and LoadCSV reads back.
func WriteCSV(w io.Writer, items []geom.Item) error {
	bw := bufio.NewWriter(w)
	for _, it := range items {
		if _, err := fmt.Fprintf(bw, "%d,%s", it.ID,
			strconv.FormatFloat(it.Sphere.Radius, 'g', -1, 64)); err != nil {
			return err
		}
		for _, c := range it.Sphere.Center {
			if _, err := fmt.Fprintf(bw, ",%s", strconv.FormatFloat(c, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadCSV reads "id,radius,c1,…,cd" rows. All rows must share one
// dimensionality; blank lines and lines starting with '#' are skipped.
// This is the bridge for users who hold the actual NBA/Corel/Forest files
// the paper used: export them in this format and every experiment runs on
// the real data instead of the simulated stand-ins.
//
// The stream is cut into blocks of whole lines that GOMAXPROCS goroutines
// parse while the caller keeps reading; the blocks are put back together in
// file order, so the items, their order and the first error in file order
// do not depend on the schedule (DESIGN.md §13, "Cold start").
func LoadCSV(r io.Reader) ([]geom.Item, error) { return loadCSV(r, csvBlockSize) }

const (
	// csvBlockSize is how many fresh bytes a block reads before it is cut at
	// its last newline: large enough that handing a block over costs nothing
	// next to parsing it, small enough that a 2 MB corpus still makes two.
	csvBlockSize = 1 << 20
	// maxLineBytes is the longest accepted line plus one — the token cap the
	// line-at-a-time bufio.Scanner this replaced was given, reported as the
	// same bufio.ErrTooLong.
	maxLineBytes = 16 << 20
	// minRowBytes is the shortest data row, "0,0,0" and its newline.
	minRowBytes = 6
)

// csvBlock is a run of whole lines on its way through the pipeline: cut by
// the reader, filled in by one parser, consumed by the assembler once done
// is closed.
type csvBlock struct {
	data []byte // its buffer goes back to the reader once parsed
	line int    // number of the last line before data
	done chan struct{}

	items   []geom.Item
	dim     int // coordinates of the block's first data row that got as far as counting them; -1 if none did
	dimLine int
	err     error // first error in the block, judged against dim
}

func loadCSV(r io.Reader, blockSize int) ([]geom.Item, error) {
	workers := runtime.GOMAXPROCS(0)
	// A block enters order before it is read into and leaves when the
	// assembler takes it, so at most workers+1 blocks exist at any time;
	// work then has room for every block that can exist, and sending on it
	// never blocks.
	order := make(chan *csvBlock, workers)
	work := make(chan *csvBlock, workers+1)
	free := make(chan []byte, workers+1) // parsed buffers on their way back to the reader
	stop := make(chan struct{})          // closed by the assembler on the first error

	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				b.parse()
				// Back it goes before the block is done: a buffer out of
				// free then always belongs to a block in flight, so there
				// are never more buffers than free has room for.
				free <- b.data
				close(b.done)
			}
		}()
	}
	var (
		items []geom.Item
		err   error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if items, err = assembleCSV(order); err != nil {
			close(stop)
		}
	}()

	readErr := cutCSV(r, blockSize, order, work, free, stop)
	close(work)
	close(order)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	// As with the Scanner, what arrived before a failed Read was parsed as
	// if the stream had ended there, and an error in it comes first.
	if readErr != nil {
		return nil, fmt.Errorf("dataset: reading: %w", readErr)
	}
	return items, nil
}

// cutCSV reads r to its end on the calling goroutine, cutting it into blocks
// of whole lines that it hands to order (first, which is what bounds the
// blocks in flight) and work. It returns early when stop closes, and reports
// a Read error other than io.EOF after handing over what arrived before it.
func cutCSV(r io.Reader, blockSize int, order, work chan<- *csvBlock, free <-chan []byte, stop <-chan struct{}) (readErr error) {
	var tail []byte // the unterminated end of the previous block's buffer, copied out of it
	line := 0
	for eof := false; !eof; {
		blk := &csvBlock{line: line, done: make(chan struct{})}
		select {
		case order <- blk:
		case <-stop:
			return nil
		}
		var buf []byte
		select {
		case buf = <-free:
		default:
		}
		buf = append(buf[:0], tail...)
		end := -1
		for end < 0 {
			buf = slices.Grow(buf, blockSize)
			n, err := fill(r, buf[len(buf):len(buf)+blockSize])
			buf = buf[:len(buf)+n]
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				eof, end = true, len(buf)
			} else if i := bytes.LastIndexByte(buf[len(buf)-n:], '\n'); i >= 0 {
				end = len(buf) - n + i + 1
			} else if len(buf) >= maxLineBytes {
				// One line and already too long: stop reading, parse reports it.
				eof, end = true, len(buf)
			}
		}
		blk.data, tail = buf[:end], append(tail[:0], buf[end:]...)
		line += bytes.Count(blk.data, newline)
		work <- blk
	}
	return readErr
}

// fill reads into p until it is full or r fails. Like bufio it gives up on a
// reader that keeps returning nothing.
func fill(r io.Reader, p []byte) (n int, err error) {
	for empty := 0; n < len(p) && err == nil; {
		var m int
		m, err = r.Read(p[n:])
		n += m
		if m > 0 {
			empty = 0
		} else if empty++; empty == 100 && err == nil {
			err = io.ErrNoProgress
		}
	}
	return n, err
}

// assembleCSV takes the blocks in file order and returns their items, or the
// first error in file order. Only here is the file's dimensionality known —
// it is the first data row's — so a block that counted something else fails
// at the row it counted, which precedes any other error it found.
func assembleCSV(order <-chan *csvBlock) ([]geom.Item, error) {
	var items []geom.Item
	dim := -1
	for blk := range order {
		<-blk.done
		if blk.dim != -1 {
			if dim == -1 {
				dim = blk.dim
			} else if blk.dim != dim {
				return nil, fmt.Errorf("dataset: line %d: %d coordinates, want %d", blk.dimLine, blk.dim, dim)
			}
		}
		if blk.err != nil {
			return nil, blk.err
		}
		items = append(items, blk.items...)
	}
	return items, nil
}

var (
	newline = []byte{'\n'}
	comma   = []byte{','}
)

// parse turns the block's lines into items, stopping at the first error. No
// row allocates: fields are sub-slices of data, the strings handed to
// strconv do not escape, and centers are cut from one slice per block.
func (b *csvBlock) parse() {
	data := b.data
	b.dim = -1
	rows := bytes.Count(data, newline) + 1
	b.items = make([]geom.Item, 0, min(rows, len(data)/minRowBytes+1))
	var flat []float64
	for lineNo := b.line + 1; len(data) > 0; lineNo++ {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) >= maxLineBytes {
			b.err = fmt.Errorf("dataset: reading: %w", bufio.ErrTooLong)
			return
		}
		rows--
		line = bytes.TrimSpace(line) // and with it the '\r' of a CRLF
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		idField, rest, ok := bytes.Cut(line, comma)
		radField, rest, ok2 := bytes.Cut(rest, comma)
		if !ok || !ok2 {
			b.err = fmt.Errorf("dataset: line %d: need at least id,radius,c1", lineNo)
			return
		}
		id, err := strconv.Atoi(string(bytes.TrimSpace(idField)))
		if err != nil {
			b.err = fmt.Errorf("dataset: line %d: bad id %q: %w", lineNo, idField, err)
			return
		}
		radius, err := strconv.ParseFloat(string(bytes.TrimSpace(radField)), 64)
		if err != nil {
			b.err = fmt.Errorf("dataset: line %d: bad radius %q: %w", lineNo, radField, err)
			return
		}
		if radius < 0 {
			b.err = fmt.Errorf("dataset: line %d: negative radius %v", lineNo, radius)
			return
		}
		n := bytes.Count(rest, comma) + 1
		if b.dim == -1 {
			b.dim, b.dimLine = n, lineNo
		} else if n != b.dim {
			b.err = fmt.Errorf("dataset: line %d: %d coordinates, want %d", lineNo, n, b.dim)
			return
		}
		if cap(flat)-len(flat) < n {
			// Room for this row and, past it, for every row left — but never
			// more than the bytes left could spell: a coordinate that parses
			// takes two with its comma.
			most := max(n, (len(line)+len(data))/2)
			if rows < most/n {
				most = (rows + 1) * n
			}
			flat = make([]float64, 0, most)
		}
		center := flat[len(flat) : len(flat)+n : len(flat)+n]
		flat = flat[:len(flat)+n]
		for i := range center {
			var f []byte
			f, rest, _ = bytes.Cut(rest, comma)
			if center[i], err = strconv.ParseFloat(string(bytes.TrimSpace(f)), 64); err != nil {
				b.err = fmt.Errorf("dataset: line %d: bad coordinate %q: %w", lineNo, f, err)
				return
			}
		}
		sphere := geom.Sphere{Center: center, Radius: radius}
		if err := sphere.Validate(); err != nil {
			b.err = fmt.Errorf("dataset: line %d: %w", lineNo, err)
			return
		}
		b.items = append(b.items, geom.Item{Sphere: sphere, ID: id})
	}
}
