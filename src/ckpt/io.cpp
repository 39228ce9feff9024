#include "ckpt/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.h"

namespace oasis::ckpt {
namespace {

// Kill-point state. Plain globals: write_file_atomic is only ever called
// from serial checkpoint code (the round loop), never from parallel regions.
std::int64_t g_kill_save = -1;
std::int64_t g_kill_offset = -1;
std::int64_t g_save_count = 0;
bool g_env_checked = false;

void load_env_kill_point() {
  g_env_checked = true;
  const char* env = std::getenv("OASIS_CKPT_KILL_AT");
  if (env == nullptr || *env == '\0') return;
  char* colon = nullptr;
  const long long save = std::strtoll(env, &colon, 10);
  if (colon == nullptr || *colon != ':') return;
  const long long offset = std::strtoll(colon + 1, nullptr, 10);
  g_kill_save = save;
  g_kill_offset = offset;
}

[[noreturn]] void die_now() {
  // SIGKILL cannot be caught: this is indistinguishable from kill -9 /
  // OOM-kill from the checkpoint's point of view. raise() can only "return"
  // if the signal were blocked, which SIGKILL never is; abort as belt and
  // braces so the compiler sees noreturn.
  ::raise(SIGKILL);
  std::abort();
}

struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

void arm_kill_point(std::int64_t save_index, std::int64_t offset) {
  g_env_checked = true;  // explicit arming overrides the env var
  g_kill_save = save_index < 0 ? -1 : save_index + g_save_count;
  g_kill_offset = offset;
}

ByteBuffer read_file(const std::string& path) {
  Fd f;
  f.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (f.fd < 0) throw IoError("open", path, errno);
  const off_t size = ::lseek(f.fd, 0, SEEK_END);
  if (size < 0 || ::lseek(f.fd, 0, SEEK_SET) < 0) {
    throw IoError("lseek", path, errno);
  }
  ByteBuffer out(static_cast<std::size_t>(size));
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t got = ::read(f.fd, out.data() + done, out.size() - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw IoError("read", path, errno);
    }
    if (got == 0) throw IoError("read (early EOF)", path, EIO);
    done += static_cast<std::size_t>(got);
  }
  return out;
}

void write_file_atomic(const std::string& path, const ByteBuffer& bytes) {
  if (!g_env_checked) load_env_kill_point();
  const bool kill_this_save = (g_save_count == g_kill_save);
  const std::int64_t n = static_cast<std::int64_t>(bytes.size());
  const std::int64_t kill_at =
      kill_this_save ? std::min(std::max<std::int64_t>(g_kill_offset, 0), n + 1)
                     : -1;
  ++g_save_count;

  const std::string tmp = path + ".tmp";
  {
    Fd f;
    f.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (f.fd < 0) throw IoError("open", tmp, errno);

    constexpr std::int64_t kChunk = 1 << 20;
    std::int64_t done = 0;
    while (done < n) {
      std::int64_t take = std::min(kChunk, n - done);
      // Land exactly on the armed offset so the tear is byte-precise.
      if (kill_at >= 0 && done < kill_at && kill_at <= n) {
        take = std::min(take, kill_at - done);
      }
      const ssize_t put = ::write(f.fd, bytes.data() + done, take);
      if (put < 0) {
        if (errno == EINTR) continue;
        throw IoError("write", tmp, errno);
      }
      done += put;
      if (kill_at >= 0 && done >= kill_at) die_now();
    }
    if (kill_at == 0 && n == 0) die_now();

    if (::fsync(f.fd) != 0) throw IoError("fsync", tmp, errno);
  }

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw IoError("rename", tmp, errno);
  }
  if (kill_at == n + 1) die_now();

  // Make the rename itself durable.
  const std::string dir = parent_dir(path);
  Fd d;
  d.fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (d.fd < 0) throw IoError("open (dir)", dir, errno);
  if (::fsync(d.fd) != 0) throw IoError("fsync (dir)", dir, errno);
}

}  // namespace oasis::ckpt
