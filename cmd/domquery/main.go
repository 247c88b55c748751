// Command domquery evaluates one dominance query from JSON and reports the
// verdict of every criterion, a structured way to explore the operator.
//
// Input (stdin or -in FILE):
//
//	{
//	  "sa": {"center": [0, 0], "radius": 1},
//	  "sb": {"center": [9, 0], "radius": 1},
//	  "sq": {"center": [-4, 0], "radius": 2}
//	}
//
// Output: one JSON object with each criterion's verdict, the optimal
// verdict, and — when dominance fails — a witness point inside Sq whose
// distance margin certifies the failure.
//
// The shared observability flags are available too: `domquery -metrics`
// prints the criterion counters the query moved to stderr, and -cpuprofile
// and -memprofile write profiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"hyperdom"
	"hyperdom/internal/obs"
)

// queryJSON is the input document; a sphere decodes as
// {"center": [...], "radius": r}.
type queryJSON struct {
	Sa hyperdom.Sphere `json:"sa"`
	Sb hyperdom.Sphere `json:"sb"`
	Sq hyperdom.Sphere `json:"sq"`
}

type resultJSON struct {
	Dominates bool            `json:"dominates"`
	Verdicts  map[string]bool `json:"verdicts"`
	Witness   *witnessJSON    `json:"witness,omitempty"`
}

type witnessJSON struct {
	Q      []float64 `json:"q"`
	Margin float64   `json:"margin"`
}

func main() {
	in := flag.String("in", "", "input file (default stdin)")
	pf := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stop, err := pf.Start()
	if err != nil {
		fatal("%v", err)
	}

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal("opening %s: %v", *in, err)
		}
		defer f.Close()
		r = f
	}
	if err := run(r, os.Stdout); err != nil {
		fatal("%v", err)
	}
	stop()
}

// run decodes one query from r, evaluates it and writes the JSON result to
// w. Extracted from main so the full pipeline is unit-testable.
func run(r io.Reader, w io.Writer) error {
	var q queryJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return fmt.Errorf("decoding query: %w", err)
	}
	sa, sb, sq := q.Sa, q.Sb, q.Sq
	for _, s := range []hyperdom.Sphere{sa, sb, sq} {
		if err := s.Validate(); err != nil {
			return err
		}
		if s.Dim() != sa.Dim() {
			return fmt.Errorf("spheres must share one dimensionality")
		}
	}

	res := resultJSON{Verdicts: map[string]bool{}}
	for _, c := range hyperdom.Criteria() {
		res.Verdicts[c.Name()] = c.Dominates(sa, sb, sq)
	}
	res.Dominates = res.Verdicts["Hyperbola"]
	if !res.Dominates {
		if wit := hyperdom.FindWitness(sa, sb, sq, 2048); wit != nil {
			res.Witness = &witnessJSON{Q: wit.Q, Margin: wit.Margin}
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "domquery: "+format+"\n", args...)
	os.Exit(2)
}
