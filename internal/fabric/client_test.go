package fabric

import (
	"bytes"
	"testing"
)

// FuzzReadStream holds the one sweep-stream reader to its contract on
// arbitrary bytes: it never panics, and it returns the Done line, nil
// (the stream ended first) or an error. No line after the Done line
// reaches the callback. The seed corpus is testdata/fuzz/FuzzReadStream.
func FuzzReadStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var seen []StreamLine
		done, err := readStream(bytes.NewReader(data), func(line StreamLine) {
			if n := len(seen); n > 0 && seen[n-1].Done {
				t.Fatalf("line %+v reached the callback after the Done line", line)
			}
			seen = append(seen, line)
		})
		switch {
		case err != nil:
			if done != nil {
				t.Fatalf("returned both a Done line and error %v", err)
			}
		case done != nil:
			if !done.Done || len(seen) == 0 || !seen[len(seen)-1].Done {
				t.Fatalf("returned %+v, which is not the last line seen as Done", done)
			}
		default:
			for _, line := range seen {
				if line.Done {
					t.Fatal("saw a Done line but returned none")
				}
			}
		}
	})
}
