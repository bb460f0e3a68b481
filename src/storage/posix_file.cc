#include "storage/posix_file.h"

#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace minerule::storage {

namespace {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::ExecutionError(what + " failed for '" + path +
                                "': " + std::strerror(errno));
}

}  // namespace

PosixFile::PosixFile(int fd, std::string path)
    : fd_(fd), path_(std::move(path)) {}

PosixFile::~PosixFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<PosixFile>> PosixFile::CreateTemp(
    const std::string& dir) {
  std::string base = dir;
  if (base.empty()) {
    const char* env = std::getenv("TMPDIR");
    base = (env != nullptr && env[0] != '\0') ? env : "/tmp";
  }
  std::string tmpl = base + "/minerule-spill-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  int fd = ::mkstemp(buf.data());
  if (fd < 0) return ErrnoStatus("mkstemp", tmpl);
  // Unlink immediately: the file stays alive through the descriptor alone,
  // so spill data can never leak into the filesystem, even on a crash.
  if (::unlink(buf.data()) != 0) {
    ::close(fd);
    return ErrnoStatus("unlink", buf.data());
  }
  return std::unique_ptr<PosixFile>(new PosixFile(fd, buf.data()));
}

Status PosixFile::ReadAt(uint64_t offset, void* buf, size_t len) const {
  MR_ASSIGN_OR_RETURN(size_t got, ReadAtPartial(offset, buf, len));
  if (got != len) {
    return Status::ExecutionError(
        "short read from '" + path_ + "': wanted " + std::to_string(len) +
        " bytes at offset " + std::to_string(offset) + ", got " +
        std::to_string(got));
  }
  return Status::OK();
}

Result<size_t> PosixFile::ReadAtPartial(uint64_t offset, void* buf,
                                        size_t len) const {
  char* dst = static_cast<char*>(buf);
  size_t total = 0;
  while (total < len) {
    ssize_t n = ::pread(fd_, dst + total, len - total,
                        static_cast<off_t>(offset + total));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", path_);
    }
    if (n == 0) break;  // EOF
    total += static_cast<size_t>(n);
  }
  return total;
}

Status PosixFile::WriteAt(uint64_t offset, const void* buf, size_t len) {
  const char* src = static_cast<const char*>(buf);
  size_t total = 0;
  while (total < len) {
    ssize_t n = ::pwrite(fd_, src + total, len - total,
                         static_cast<off_t>(offset + total));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite", path_);
    }
    total += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<uint64_t> PosixFile::Size() const {
  off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) return ErrnoStatus("lseek", path_);
  return static_cast<uint64_t>(end);
}

Status PosixFile::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("ftruncate", path_);
  }
  return Status::OK();
}

}  // namespace minerule::storage
