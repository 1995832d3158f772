/* C stub for the simulated NVM region's buffers.
 *
 * Asks the kernel to back a large OCaml [bytes] buffer with 2 MiB
 * transparent huge pages, the way a DAX-mapped persistent-memory
 * device is mapped.  Best effort: a no-op where MADV_HUGEPAGE is
 * missing, and harmless where THP is off (the kernel ignores the
 * advice or rejects it, and the error is dropped).  Only the 2 MiB
 * aligned interior of the buffer is advised, so buffers too small to
 * hold a huge page cost nothing.
 */

#include <caml/mlvalues.h>

#include <stdint.h>
#ifdef __linux__
#include <sys/mman.h>
#endif

CAMLprim value montage_madvise_hugepage(value buf)
{
#ifdef MADV_HUGEPAGE
  const uintptr_t huge = (uintptr_t) 2 << 20;
  uintptr_t start = (uintptr_t) Bytes_val(buf);
  uintptr_t end = start + caml_string_length(buf);
  start = (start + huge - 1) & ~(huge - 1);
  end &= ~(huge - 1);
  if (end > start) (void) madvise((void *) start, end - start, MADV_HUGEPAGE);
#else
  (void) buf;
#endif
  return Val_unit;
}
