// Binary-wide heap-allocation counter for tests that assert a code path
// never allocates: corrupt-input rejection must not size a buffer from
// an untrusted field, and metric hot paths must not touch the heap.
// Linking heap_counter.cc into a test binary replaces the global
// operator new and delete; the array forms forward to them per the
// standard's default definitions. Keeping the replacement in its own
// translation unit stops GCC from inlining its free() into call sites
// that pair it with new (-Wmismatched-new-delete).

#ifndef GRADGCL_TESTS_HEAP_COUNTER_H_
#define GRADGCL_TESTS_HEAP_COUNTER_H_

#include <cstdint>

namespace gradgcl {

// Calls to the global operator new so far in this process.
uint64_t HeapNewCalls();

}  // namespace gradgcl

#endif  // GRADGCL_TESTS_HEAP_COUNTER_H_
