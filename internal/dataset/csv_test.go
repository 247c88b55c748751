package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"hyperdom/internal/geom"
	"hyperdom/internal/vec"
)

// loadCSVSequential is the line-at-a-time reader LoadCSV was until the block
// pipeline replaced it, kept as the reference the pipeline must agree with:
// same items, same order, same error text.
func loadCSVSequential(r io.Reader) ([]geom.Item, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var items []geom.Item
	dim := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 3 {
			return nil, fmt.Errorf("dataset: line %d: need at least id,radius,c1", lineNo)
		}
		id, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad id %q: %w", lineNo, fields[0], err)
		}
		radius, err := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad radius %q: %w", lineNo, fields[1], err)
		}
		if radius < 0 {
			return nil, fmt.Errorf("dataset: line %d: negative radius %v", lineNo, radius)
		}
		coords := fields[2:]
		if dim == -1 {
			dim = len(coords)
		} else if len(coords) != dim {
			return nil, fmt.Errorf("dataset: line %d: %d coordinates, want %d", lineNo, len(coords), dim)
		}
		center := make([]float64, dim)
		for i, f := range coords {
			c, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad coordinate %q: %w", lineNo, f, err)
			}
			center[i] = c
		}
		sphere := geom.Sphere{Center: center, Radius: radius}
		if err := sphere.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		items = append(items, geom.Item{Sphere: sphere, ID: id})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading: %w", err)
	}
	return items, nil
}

// sameAsSequential fails unless the pipeline, cutting blocks of blockSize,
// and the reference agree on the input open() yields.
func sameAsSequential(t *testing.T, open func() io.Reader, blockSize int) {
	t.Helper()
	want, wantErr := loadCSVSequential(open())
	got, gotErr := loadCSV(open(), blockSize)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("block size %d: err %v, reference says %v", blockSize, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("block size %d: %d items %v, reference has %d %v", blockSize, len(got), got, len(want), want)
	}
}

// csvCases are inputs whose interesting byte falls on, before or after a
// block boundary at one of the tiny block sizes the tests cut with.
var csvCases = map[string]string{
	"empty":                       "",
	"only a newline":              "\n",
	"only comments and blanks":    "# a\n\n  \n#b",
	"plain":                       "0,1.5,2,3\n1,0,4,5\n2,0.25,-6,7e2\n",
	"no trailing newline":         "0,1.5,2,3\n1,0,4,5",
	"CRLF":                        "0,1.5,2,3\r\n1,0,4,5\r\n\r\n2,1,1,1\r\n",
	"lone CR before EOF":          "0,1.5,2,3\n\r",
	"comments and blanks around":  "# head\n\n0,1,2\n\n# mid\n   \n1,1,3\n# tail\n\n",
	"padded fields":               " 0 , 1.5 ,\t2 , 3 \n\t1,0, 4,5\t\n",
	"one long row":                "7,0.5" + strings.Repeat(",1.25", 40) + "\n8,0.5" + strings.Repeat(",2.5", 40) + "\n",
	"short row":                   "0,1,2\n0,1\n",
	"bare word":                   "0,1,2\nzap\n",
	"bad id":                      "0,1,2\n x ,1,2\n",
	"id out of range":             "99999999999999999999,1,2\n",
	"bad radius":                  "0,1,2\n0, huh,2\n",
	"negative radius":             "0,1,2\n0,-1,2\n",
	"NaN radius":                  "0,NaN,2\n",
	"bad coordinate":              "0,1,2\n0,1, zap \n",
	"empty coordinates":           "0,0,,,,,\n",
	"NaN coordinate":              "0,1,2\n1,1,NaN\n",
	"infinite coordinate":         "0,1,+Inf\n",
	"mixed dims":                  "0,1,2,3\n1,1,2\n",
	"odd row in a later block":    "0,1,2,3\n1,1,2,3\n2,1,2,3\n3,1,2,3\n4,1,2,3\n5,1,2\n6,1,2,3\n",
	"odd row that is also broken": "0,1,2,3\n1,1,2,3\n2,1,2,3\n3,1,zap\n",
	"odd rows open a later block": "0,1,2,3\n1,1,2,3\n2,1,2,3\n3,1,2\n4,1,2\n5,1,2,3\n",
	"two bad rows, blocks apart":  "0,1,2\n1,1,2\nx,1,2\n3,1,2\n4,1,2\n5,1,2\n6,1,2\n7,huh,2\n",
	"bad row then odd row":        "0,1,2\n1,1,zap\n2,1,2\n3,1,2\n4,1,2,3\n",
	"non-UTF-8 and odd spaces":    "0,1,2\n\xa0\u00a01,1,3\u2003\n\xff,1,2\n",
}

func TestLoadCSVMatchesSequential(t *testing.T) {
	// Every size from a byte to past the longest line, so each newline of each
	// case is once the last byte of a block, once the first of the next, and
	// each row once straddles a cut; then the real size.
	sizes := []int{64, 256, csvBlockSize}
	for size := 1; size <= 40; size++ {
		sizes = append(sizes, size)
	}
	for name, in := range csvCases {
		for _, blockSize := range sizes {
			t.Run(fmt.Sprint(name, "/", blockSize), func(t *testing.T) {
				sameAsSequential(t, func() io.Reader { return strings.NewReader(in) }, blockSize)
				// One byte a Read: blocks are filled over many calls.
				sameAsSequential(t, func() io.Reader { return iotest.OneByteReader(strings.NewReader(in)) }, blockSize)
			})
		}
	}
}

// repeated is an endless stream of one byte.
type repeated byte

func (r repeated) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// counted counts the bytes its reader served.
type counted struct {
	r      io.Reader
	served int
}

func (c *counted) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.served += n
	return n, err
}

// The 16 MiB line cap is the Scanner's: a line one byte under it is read, a
// line at it fails with the Scanner's error, an earlier bad row still comes
// first, and a stream that never ends its line is given up on rather than
// buffered.
func TestLoadCSVLineCap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates several 16 MiB lines")
	}
	long := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	for name, in := range map[string]string{
		"under the cap":     "0,1,2\n" + long(maxLineBytes-1) + "\n1,1,3\n",
		"under, unfinished": "0,1,2\n" + long(maxLineBytes-1),
		"at the cap":        "0,1,2\n" + long(maxLineBytes) + "\n1,1,3\n",
		"at, unfinished":    "0,1,2\n" + long(maxLineBytes),
		"bad row before it": "x,1,2\n" + long(maxLineBytes) + "\n",
		"bad row after it":  long(maxLineBytes+5) + "\nx,1,2\n",
	} {
		t.Run(name, func(t *testing.T) {
			sameAsSequential(t, func() io.Reader { return strings.NewReader(in) }, csvBlockSize)
		})
	}

	endless := &counted{r: repeated('x')}
	_, err := LoadCSV(io.MultiReader(strings.NewReader("0,1,2\n"), endless))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("endless line: err = %v, want bufio.ErrTooLong", err)
	}
	if most := maxLineBytes + 2*csvBlockSize; endless.served > most {
		t.Errorf("endless line: read %d bytes of it, want at most %d", endless.served, most)
	}
}

// A Read that fails is reported after what arrived before it was parsed as
// the whole input, exactly as the Scanner did it: a bad row in that prefix
// comes first, and so does a cut-off last line that no longer parses.
func TestLoadCSVReadError(t *testing.T) {
	boom := errors.New("boom")
	for name, prefix := range map[string]string{
		"nothing read":      "",
		"whole rows":        "0,1,2\n1,1,3\n2,1,4\n",
		"cut in a number":   "0,1,2\n1,1,3\n2,1,4",
		"cut after a comma": "0,1,2\n1,1,3\n2,1,",
		"bad row before":    "0,1,2\nx,1,3\n2,1,4\n",
	} {
		for _, blockSize := range []int{1, 4, 7, 64} {
			t.Run(fmt.Sprint(name, "/", blockSize), func(t *testing.T) {
				sameAsSequential(t, func() io.Reader {
					return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(boom))
				}, blockSize)
			})
		}
	}
	if _, err := loadCSV(io.MultiReader(strings.NewReader("0,1,2\n"), iotest.ErrReader(boom)), 4); !errors.Is(err, boom) {
		t.Errorf("err = %v, want it to wrap the reader's", err)
	}
}

// waitGoroutines fails unless the goroutine count falls back to base: a
// goroutine that has called wg.Done may take a moment to be gone.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the call", runtime.NumGoroutine(), base)
		}
	}
}

// The first block is one enormous row that is bad at its very end, so the
// reader has cut every block it is allowed to and sits blocked on the next
// by the time a parser gets there. The error must come back, the reader must
// not have run further ahead than the blocks in flight, and nothing may be
// left running.
func TestLoadCSVStopsReadingAfterError(t *testing.T) {
	const blockSize = 64
	first := "0,1" + strings.Repeat(",1.5", 200_000) + ",zap\n"
	row := "1,1" + strings.Repeat(",1.5", 200_001) + "\n"
	in := &counted{r: strings.NewReader(first + strings.Repeat(row, 20) + strings.Repeat("2,1,1\n", 100_000))}
	base := runtime.NumGoroutine()
	items, err := loadCSV(in, blockSize)
	if items != nil || err == nil || !strings.Contains(err.Error(), `line 1: bad coordinate "zap"`) {
		t.Fatalf("got %d items, err %v", len(items), err)
	}
	// Every block in flight is at most a row and a block long, and there are
	// at most GOMAXPROCS+1 of them past the first.
	if most := len(first) + (runtime.GOMAXPROCS(0)+2)*(len(row)+blockSize); in.served > most {
		t.Errorf("read %d bytes, want at most %d: the reader outran the blocks in flight", in.served, most)
	}
	waitGoroutines(t, base)
}

// gated serves head, then blocks in Read until released.
type gated struct {
	head    io.Reader
	blocked chan struct{} // closed when a Read is waiting
	release chan struct{}
}

func (g *gated) Read(p []byte) (int, error) {
	if n, _ := g.head.Read(p); n > 0 {
		return n, nil
	}
	close(g.blocked)
	<-g.release
	return 0, io.EOF
}

// A reader stuck in Read cannot be interrupted, but once it comes back
// LoadCSV returns the error a parser found meanwhile, with nothing left
// running. (Should the parser win the race, the reader never makes that Read;
// a hang in either order ends in the test timeout.)
func TestLoadCSVBlockedReader(t *testing.T) {
	g := &gated{
		head:    strings.NewReader("0,1,2\nx,1,2\n1,1,3\n"),
		blocked: make(chan struct{}),
		release: make(chan struct{}),
	}
	base := runtime.NumGoroutine()
	errc := make(chan error, 1)
	go func() {
		_, err := loadCSV(g, 16)
		errc <- err
	}()
	var err error
	select {
	case <-g.blocked:
		close(g.release)
		err = <-errc
	case err = <-errc:
	}
	if err == nil || !strings.Contains(err.Error(), `line 2: bad id "x"`) {
		t.Fatalf("err = %v", err)
	}
	waitGoroutines(t, base)
}

// A reader that returns nothing, forever, is given up on as bufio does.
func TestLoadCSVNoProgress(t *testing.T) {
	if _, err := LoadCSV(zeroReader{}); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("err = %v, want io.ErrNoProgress", err)
	}
}

type zeroReader struct{}

func (zeroReader) Read([]byte) (int, error) { return 0, nil }

func FuzzLoadCSV(f *testing.F) {
	for _, in := range csvCases {
		f.Add([]byte(in), uint8(3))
		f.Add([]byte(in), uint8(17))
	}
	f.Fuzz(func(t *testing.T, in []byte, blockSize uint8) {
		sameAsSequential(t, func() io.Reader { return bytes.NewReader(in) }, int(blockSize)+1)
	})
}

var sinkItems []geom.Item

// BenchmarkLoadCSV reads the scan_d10-shaped corpus of the serving benchmark
// (100k rows, d = 10) from memory; run it with -cpu 1,2 — one core must not
// pay for the pipeline.
func BenchmarkLoadCSV(b *testing.B) {
	items := Spheres(SyntheticCenters(100_000, 10, Gaussian, 1), GaussianRadii(1), 2)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, items); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sinkItems, err = LoadCSV(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ps := SyntheticCenters(200, 5, Gaussian, 9)
	items := Spheres(ps, GaussianRadii(7), 10)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, items); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := LoadCSV(&buf)
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if len(got) != len(items) {
		t.Fatalf("got %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i].ID != items[i].ID ||
			got[i].Sphere.Radius != items[i].Sphere.Radius ||
			!vec.Equal(got[i].Sphere.Center, items[i].Sphere.Center) {
			t.Fatalf("item %d does not round-trip exactly", i)
		}
	}
}

func TestLoadCSVCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n0,1.5,2,3\n\n# another\n1,0,4,5\n"
	items, err := LoadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if len(items) != 2 || items[1].Sphere.Center[1] != 5 {
		t.Fatalf("parsed %v", items)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"short row":       "0,1\n",
		"bad id":          "x,1,2\n",
		"bad radius":      "0,huh,2\n",
		"negative radius": "0,-1,2\n",
		"bad coord":       "0,1,zap\n",
		"mixed dims":      "0,1,2,3\n1,1,2\n",
		"nan coord":       "0,1,NaN\n",
	}
	for name, in := range cases {
		if _, err := LoadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadCSVEmpty(t *testing.T) {
	items, err := LoadCSV(strings.NewReader(""))
	if err != nil || len(items) != 0 {
		t.Errorf("empty input: %v, %d items", err, len(items))
	}
}

func TestLoadCSVInfinityRejected(t *testing.T) {
	if _, err := LoadCSV(strings.NewReader("0,1,+Inf\n")); err == nil {
		t.Error("infinite coordinate accepted")
	}
}
