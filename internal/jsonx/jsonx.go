// Package jsonx provides strict JSON decoding for the repo's
// configuration surfaces: scenario specs, fleet session configs and
// checkpoint metadata. Strict means two things the stdlib decoder does
// not give by default:
//
//   - unknown fields are errors, not silent drops (a typo'd knob must
//     fail the spec load, never fall through to a default — the same
//     discipline the CLIs apply to their flags);
//   - decode errors carry a field path ("cohorts.weight: cannot decode
//     string into float64", "cohorts[0].engine: unknown field
//     \"engine\"") instead of a byte offset, so a hand-edited spec
//     points at the line to fix.
package jsonx

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// DecodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and trailing garbage. Errors name the offending field
// path where one can be determined.
func DecodeStrict(r io.Reader, v any) error {
	// seen keeps the bytes the decoder consumed — the whole value, since
	// it reads a value completely before decoding it.
	var seen bytes.Buffer
	dec := json.NewDecoder(io.TeeReader(r, &seen))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		// The stdlib names an unknown field but not where it sits; find
		// its path by walking the document against v's type.
		if msg, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
			if path := unknownFieldPath(seen.Bytes(), reflect.TypeOf(v)); path != "" {
				return fmt.Errorf("%s: unknown field %s", path, msg)
			}
		}
		return describe(err)
	}
	// A config file is one document; trailing content is a structural
	// mistake (e.g. two concatenated objects) worth failing on.
	if dec.More() {
		return fmt.Errorf("trailing content after the JSON document")
	}
	return nil
}

// UnmarshalStrict is DecodeStrict over a byte slice.
func UnmarshalStrict(data []byte, v any) error {
	return DecodeStrict(bytes.NewReader(data), v)
}

var unmarshalerType = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()

// unknownFieldPath returns the path ("cohorts[0].engine") of the first
// object key, in document order, that names no field of the struct it
// would decode into — the key the stdlib decoder rejects — or "" when
// there is none.
func unknownFieldPath(data []byte, t reflect.Type) string {
	path, _ := walk(json.NewDecoder(bytes.NewReader(data)), t, "")
	return path
}

// walk consumes one JSON value decoding into type t and returns the
// path of its first unknown key. A nil t stands for a type that accepts
// any keys: an interface, a raw message or a custom unmarshaler.
func walk(dec *json.Decoder, t reflect.Type, path string) (string, error) {
	tok, err := dec.Token()
	if err != nil {
		return "", err
	}
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t != nil && reflect.PointerTo(t).Implements(unmarshalerType) {
		t = nil
	}
	switch tok {
	case json.Delim('{'):
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				return "", err
			}
			sub := key.(string)
			if path != "" {
				sub = path + "." + sub
			}
			var elem reflect.Type
			switch {
			case t == nil:
			case t.Kind() == reflect.Struct:
				ft, ok := fieldType(t, key.(string))
				if !ok {
					return sub, nil
				}
				elem = ft
			case t.Kind() == reflect.Map:
				elem = t.Elem()
			}
			if p, err := walk(dec, elem, sub); p != "" || err != nil {
				return p, err
			}
		}
	case json.Delim('['):
		var elem reflect.Type
		if t != nil && (t.Kind() == reflect.Slice || t.Kind() == reflect.Array) {
			elem = t.Elem()
		}
		for i := 0; dec.More(); i++ {
			if p, err := walk(dec, elem, fmt.Sprintf("%s[%d]", path, i)); p != "" || err != nil {
				return p, err
			}
		}
	default:
		return "", nil
	}
	_, err = dec.Token() // the closing delimiter
	return "", err
}

// fieldType returns the type of struct t's field that JSON key decodes
// into, following encoding/json's rules: the json tag name (else the
// Go name), matched case-insensitively, with embedded structs' fields
// promoted.
func fieldType(t reflect.Type, key string) (reflect.Type, bool) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, _, _ := strings.Cut(tag, ",")
		if f.Anonymous && name == "" {
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				if typ, ok := fieldType(ft, key); ok {
					return typ, true
				}
				continue
			}
		}
		if !f.IsExported() {
			continue
		}
		if name == "" {
			name = f.Name
		}
		if strings.EqualFold(name, key) {
			return f.Type, true
		}
	}
	return nil, false
}

// describe rewrites the stdlib decoder's errors into field-path form.
func describe(err error) error {
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) {
		path := typeErr.Field
		if path == "" {
			path = "(document root)"
		}
		return fmt.Errorf("%s: cannot decode %s into %s", path, typeErr.Value, typeErr.Type)
	}
	var synErr *json.SyntaxError
	if errors.As(err, &synErr) {
		return fmt.Errorf("syntax error at byte %d: %s", synErr.Offset, synErr.Error())
	}
	// The unknown-field error is unexported; its message already names
	// the field (`json: unknown field "xyz"`). Strip the package prefix
	// so callers can add their own context.
	if msg, ok := strings.CutPrefix(err.Error(), "json: "); ok {
		return errors.New(msg)
	}
	return err
}
