// Package jsonwire holds the two JSON-wire conventions shared by the
// edmac facade and the serve layer: one canonical key for what
// "identical request" means to the Client's result cache and the HTTP
// response cache, and one rule every encoder scrubs non-finite floats
// with.
package jsonwire

import (
	"encoding/json"
	"math"
)

// CacheKey canonicalizes a request value into a cache key: the
// operation name plus the value's canonical JSON (struct field order
// is fixed, floats encode shortest-round-trip), so equal requests —
// however their original wire JSON was ordered or spaced — collide
// deliberately. The false result means the value does not marshal and
// must not be cached.
func CacheKey(op string, v any) (string, bool) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", false
	}
	return op + ":" + string(data), true
}

// FiniteOrNil boxes a float for JSON, dropping NaN/Inf values (which
// encoding/json rejects) by omission.
func FiniteOrNil(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}
