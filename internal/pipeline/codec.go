package pipeline

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Codec serializes one stage-result type for the persistent tier of the
// artifact store. A stage that declares a Codec promises that Encode ∘
// Decode is the identity on its result's observable value: a result
// decoded from disk must drive every downstream stage and every canonical
// output to bytes identical to the freshly computed one (the determinism
// contract of DESIGN.md "Artifact store").
//
// The Name is written into every disk entry; a loaded entry whose
// recorded codec differs from the stage's declared codec is treated as a
// miss, so renaming a codec (or bumping its @vN suffix) safely invalidates
// old entries instead of mis-decoding them.
type Codec interface {
	// Name identifies the codec (and implicitly the encoded format).
	// Convention: "pkg/type@v1"; bump the version when the byte format
	// changes.
	Name() string
	// Encode renders a stage result to bytes.
	Encode(v any) ([]byte, error)
	// Decode reconstructs a stage result from bytes.
	Decode(data []byte) (any, error)
}

// codecFuncs is the function-backed Codec used by NewCodec and the
// generic constructors.
type codecFuncs struct {
	name   string
	encode func(any) ([]byte, error)
	decode func([]byte) (any, error)
}

func (c codecFuncs) Name() string                 { return c.name }
func (c codecFuncs) Encode(v any) ([]byte, error) { return c.encode(v) }
func (c codecFuncs) Decode(d []byte) (any, error) { return c.decode(d) }

// NewCodec builds a Codec from an encode/decode function pair. Use it for
// codecs that need runtime context (the flow's placement codec resolves
// cell pointers against a library); for plain serializable types prefer
// JSONCodec or RawCodec.
func NewCodec(name string, encode func(any) ([]byte, error), decode func([]byte) (any, error)) Codec {
	if name == "" {
		panic("pipeline: codec with empty name")
	}
	return codecFuncs{name: name, encode: encode, decode: decode}
}

// JSONCodec builds a Codec for a type that round-trips exactly through
// encoding/json (float64 does: Go marshals the shortest representation
// that parses back to the same bit pattern). Decode returns a value of
// type T, so stage functions can keep their plain type assertions.
func JSONCodec[T any](name string) Codec {
	return NewCodec(name,
		func(v any) ([]byte, error) {
			t, ok := v.(T)
			if !ok {
				return nil, fmt.Errorf("pipeline: codec %s: encoding %T", name, v)
			}
			return json.Marshal(t)
		},
		func(data []byte) (any, error) {
			var t T
			if err := json.Unmarshal(data, &t); err != nil {
				return nil, err
			}
			return t, nil
		})
}

// RawCodec builds the identity Codec for []byte results (GDS streams).
func RawCodec(name string) Codec {
	return NewCodec(name,
		func(v any) ([]byte, error) {
			b, ok := v.([]byte)
			if !ok {
				return nil, fmt.Errorf("pipeline: codec %s: encoding %T, want []byte", name, v)
			}
			return b, nil
		},
		func(data []byte) (any, error) { return data, nil })
}

// codecRegistry is the process-wide set of codec names behind
// RegisterCodec.
var codecRegistry = struct {
	mu    sync.Mutex
	names map[string]bool
}{names: map[string]bool{}}

// RegisterCodec records a codec under its name and returns it, so
// packages can register at var-initialization time:
//
//	var codecDelay = pipeline.RegisterCodec(pipeline.JSONCodec[float64]("flow/delay@v1"))
//
// Registration makes the format a stable contract: two codecs may not
// share a name, so every name maps to exactly one byte format for the
// life of the process. Context-bound codecs (closures over runtime
// state) are built with NewCodec and passed to stages directly without
// registration.
func RegisterCodec(c Codec) Codec {
	codecRegistry.mu.Lock()
	defer codecRegistry.mu.Unlock()
	if codecRegistry.names[c.Name()] {
		panic(fmt.Sprintf("pipeline: duplicate codec %q", c.Name()))
	}
	codecRegistry.names[c.Name()] = true
	return c
}
