// Package other is the second internal package; it exports nothing.
package other

import "example.com/surface/internal/lib"

var _ = lib.Used()
