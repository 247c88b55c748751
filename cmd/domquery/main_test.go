package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func evalQuery(t *testing.T, input string) resultJSON {
	t.Helper()
	var out bytes.Buffer
	if err := run(strings.NewReader(input), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var res resultJSON
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("bad output JSON: %v\n%s", err, out.String())
	}
	return res
}

func TestRunDominant(t *testing.T) {
	res := evalQuery(t, `{
		"sa": {"center": [0, 0], "radius": 1},
		"sb": {"center": [9, 0], "radius": 1},
		"sq": {"center": [-4, 0], "radius": 2}
	}`)
	if !res.Dominates {
		t.Error("expected dominance")
	}
	if res.Witness != nil {
		t.Error("dominant instance must not carry a witness")
	}
	for _, name := range []string{"Hyperbola", "MinMax", "MBR", "GP", "Trigonometric"} {
		if _, ok := res.Verdicts[name]; !ok {
			t.Errorf("missing verdict for %s", name)
		}
	}
}

func TestRunNonDominantHasWitness(t *testing.T) {
	res := evalQuery(t, `{
		"sa": {"center": [0, 0], "radius": 1},
		"sb": {"center": [6, 0], "radius": 1},
		"sq": {"center": [-1, 0], "radius": 3.5}
	}`)
	if res.Dominates {
		t.Error("expected non-dominance")
	}
	if res.Witness == nil {
		t.Fatal("non-dominant instance should carry a witness")
	}
	if res.Witness.Margin > 0 {
		t.Errorf("witness margin %v > 0", res.Witness.Margin)
	}
	if len(res.Witness.Q) != 2 {
		t.Errorf("witness point has %d coordinates", len(res.Witness.Q))
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty center":   `{"sa":{"center":[],"radius":1},"sb":{"center":[1],"radius":1},"sq":{"center":[2],"radius":1}}`,
		"mixed dims":     `{"sa":{"center":[0,0],"radius":1},"sb":{"center":[1],"radius":1},"sq":{"center":[2,2],"radius":1}}`,
		"negative r":     `{"sa":{"center":[0],"radius":-1},"sb":{"center":[1],"radius":1},"sq":{"center":[2],"radius":1}}`,
		"not json":       `hello`,
		"unknown fields": `{"sa":{"center":[0],"radius":1},"sb":{"center":[1],"radius":1},"sq":{"center":[2],"radius":1},"bogus":1}`,
	}
	for name, input := range cases {
		var out bytes.Buffer
		if err := run(strings.NewReader(input), &out); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
