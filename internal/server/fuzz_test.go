package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// FuzzKNNRequest throws arbitrary kNN requests at a two-shard collection.
// With dim = 0 the input bytes are the request body as they stand; otherwise
// they are read as float64 bit patterns and a well-formed body is built from
// the first dim%8 of them as the center, the next as the radius, and k — so
// NaN and Inf coordinates, wrong dimensionalities and hostile k all turn up
// behind valid JSON syntax as well as in front of it. rawQuery is the URL's
// query string. Whatever arrives, the server answers 200, 400 or 413 — a
// panic is a 500 here (the recover middleware) — and a 200 is JSON that
// echoes the k that was asked for.
func FuzzKNNRequest(f *testing.F) {
	const d, n = 2, 300
	s, _ := testServer(f, testCorpus(f, d, n), d)
	h := s.Handler()

	f.Add([]byte(`{"center":[100,100],"radius":0.5,"k":1099511627776}`), int64(0), uint8(0), "") // TestHostileK
	f.Add([]byte(`{"center":[100,100],"radius":0.5,"k":3}`), int64(0), uint8(0), "explain=true")
	f.Add([]byte(`{"center":[1,2`), int64(0), uint8(0), "explain=%zz")
	f.Add([]byte(`{"center":[1,2],"k":0}`), int64(0), uint8(0), "")
	f.Add([]byte(`{"center":[1,2],"k":-9223372036854775808}`), int64(0), uint8(0), "")
	f.Add([]byte(`{"center":[1,2],"radius":1e999,"k":1}`), int64(0), uint8(0), "")
	f.Add([]byte(`{"center":[1,2],"k":1} trailing`), int64(0), uint8(0), "")
	f.Add(append([]byte(`{"center":[`), bytes.Repeat([]byte("1,"), maxBodyBytes/2)...), int64(0), uint8(0), "") // 413
	floats := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(floats(100, 100, 0.5), int64(1<<40), uint8(2), "explain=true")
	f.Add(floats(100, 100, 0.5), int64(math.MaxInt64), uint8(2), "")
	f.Add(floats(100, math.NaN(), 0.5), int64(5), uint8(2), "")
	f.Add(floats(100, 100, math.Inf(1)), int64(5), uint8(2), "")
	f.Add(floats(1, 2, 3, 4, 5, 6, 7, 8), int64(5), uint8(7), "explain=true&explain=false")
	f.Add(floats(1e308, -1e308, 1e308), int64(300), uint8(2), "")

	f.Fuzz(func(t *testing.T, data []byte, k int64, dim uint8, rawQuery string) {
		body := data
		if dim%8 != 0 {
			var xs []float64
			for ; len(data) >= 8 && len(xs) <= int(dim%8); data = data[8:] {
				xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
			body = []byte(`{"center":[`)
			for i, x := range xs[:max(len(xs)-1, 0)] {
				if i > 0 {
					body = append(body, ',')
				}
				body = strconv.AppendFloat(body, x, 'g', -1, 64)
			}
			body = append(body, `],"k":`...)
			body = strconv.AppendInt(body, k, 10)
			if len(xs) > 0 {
				body = append(body, `,"radius":`...)
				body = strconv.AppendFloat(body, xs[len(xs)-1], 'g', -1, 64)
			}
			body = append(body, '}')
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/collections/default/knn", bytes.NewReader(body))
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		case http.StatusOK:
			// The server read the first JSON value of the body and nothing
			// after it; so does this.
			var asked, got struct {
				K int `json:"k"`
			}
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&asked); err != nil {
				t.Fatalf("200 for a body encoding/json refuses (%v): %q", err, body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("200 with a body that is not JSON (%v): %q", err, rec.Body.Bytes())
			}
			if got.K != asked.K {
				t.Fatalf("asked k = %d, answer echoes k = %d", asked.K, got.K)
			}
		default:
			t.Fatalf("status %d for body %q query %q: %s", rec.Code, body, rawQuery, rec.Body.Bytes())
		}
	})
}
