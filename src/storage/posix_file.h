#ifndef MINERULE_STORAGE_POSIX_FILE_H_
#define MINERULE_STORAGE_POSIX_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"

namespace minerule::storage {

/// Thin RAII wrapper over a POSIX file descriptor with positional I/O
/// (pread/pwrite), the store underneath the spill files. No internal
/// buffering: the caller (SpillFile) manages its own.
class PosixFile {
 public:
  /// Creates an anonymous temp file in `dir` (empty means $TMPDIR or /tmp):
  /// mkstemp followed by an immediate unlink, so the data lives only as
  /// long as the descriptor and can never be leaked into the filesystem,
  /// even on crash or error mid-spill.
  static Result<std::unique_ptr<PosixFile>> CreateTemp(const std::string& dir);

  ~PosixFile();
  PosixFile(const PosixFile&) = delete;
  PosixFile& operator=(const PosixFile&) = delete;

  /// Reads exactly `len` bytes at `offset`; short reads (EOF) are an error.
  Status ReadAt(uint64_t offset, void* buf, size_t len) const;

  /// Like ReadAt but tolerates EOF: returns the number of bytes read
  /// (possibly < len, 0 at or past EOF).
  Result<size_t> ReadAtPartial(uint64_t offset, void* buf, size_t len) const;

  /// Writes exactly `len` bytes at `offset`, extending the file as needed.
  Status WriteAt(uint64_t offset, const void* buf, size_t len);

  Result<uint64_t> Size() const;
  Status Truncate(uint64_t size);

 private:
  PosixFile(int fd, std::string path);

  int fd_ = -1;
  std::string path_;
};

}  // namespace minerule::storage

#endif  // MINERULE_STORAGE_POSIX_FILE_H_
