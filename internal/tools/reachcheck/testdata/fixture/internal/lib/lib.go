// Package lib holds one declaration per case reachcheck's tests check.
package lib

// Used is called by the binary.
func Used() int { return 1 }

// Unused is called by nothing.
func Unused() int { return helper() }

// helper is called only by Unused.
func helper() int { return 2 }

// Table is generic; the binary calls Get only through an instance.
type Table[K comparable, V any] struct{ m map[K]V }

// NewTable returns an empty table.
func NewTable[K comparable, V any]() *Table[K, V] { return &Table[K, V]{m: map[K]V{}} }

// Get returns k's value.
func (t *Table[K, V]) Get(k K) V { return t.m[k] }

// Iface is what Run calls Do through.
type Iface interface{ Do() int }

// Impl satisfies Iface; nothing names Impl.Do.
type Impl struct{}

// Do implements Iface.
func (Impl) Do() int { return 3 }

// Run calls Do through the interface.
func Run(i Iface) int { return i.Do() }

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 4 }

// Allowed is called by nothing; the tests allowlist it.
func Allowed() int { return 5 }
