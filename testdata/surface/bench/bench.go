// Package bench: its lines and exports do not count, its references do.
package bench

import "example.com/surface/internal/lib"

func Exported() int { return lib.Default.Get() }
