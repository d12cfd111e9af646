package fault_test

import "nephele/internal/fault"

// Like the real drift test, this file names every list.
var lists = map[string][]string{
	"CachePoints": fault.CachePoints(),
	"OtherPoints": fault.OtherPoints(),
}
