/**
 * @file
 * scalehls-serve: the DSE-as-a-service front end. Reads newline-
 * delimited JSON requests from stdin (or accepts connections on a Unix
 * domain socket), dispatches them concurrently onto a ThreadPool
 * against ONE shared EstimateCache (api/serve.h), and writes one JSON
 * response line per request. The cache is loaded from a snapshot on
 * startup and saved on shutdown (and every --snapshot-every requests),
 * so a restarted server — or the next server sharing the same
 * $SCALEHLS_CACHE_DIR — answers warm: plan-composed evaluation, zero
 * full materializations.
 *
 * Responses are tagged by the request's "id" and may arrive out of
 * order under concurrency; the QoR of every response is independent of
 * the dispatch interleaving (deterministic per request seed).
 */

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/serve.h"
#include "support/thread_pool.h"

using namespace scalehls;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --socket PATH        accept connections on a Unix domain\n"
        "                       socket instead of reading stdin\n"
        "  --dispatch N         concurrent request dispatch slots\n"
        "                       (default 2; 1 = serial)\n"
        "  --threads N          default DSE worker threads per request\n"
        "                       (requests override via \"threads\")\n"
        "  --cache-load PATH    estimate-cache snapshot to load\n"
        "  --cache-save PATH    snapshot path saved on shutdown\n"
        "  --snapshot-every N   also save every N completed requests\n"
        "  --cache-cap SPEC     cache bound: one count for all tiers or\n"
        "                       func:band:sched:plan\n"
        "Both cache paths default to\n"
        "$SCALEHLS_CACHE_DIR/estimate_cache.shlsnap when that is set.\n"
        "Protocol: one JSON request per line (see api/serve.h).\n",
        argv0);
    return 2;
}

/** Shared stdout writer: one response line per request, atomically. */
class ResponseWriter
{
  public:
    void
    writeLine(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
    }

  private:
    std::mutex mutex_;
};

/** Tracks in-flight dispatched requests so shutdown (and per-connection
 * teardown in socket mode) waits for every response. */
class Pending
{
  public:
    void
    add()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++count_;
    }
    void
    done()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --count_;
        if (count_ == 0)
            idle_.notify_all();
    }
    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait(lock, [&] { return count_ == 0; });
    }

  private:
    std::mutex mutex_;
    std::condition_variable idle_;
    size_t count_ = 0;
};

/** stdin mode: read request lines, dispatch each onto the pool, write
 * responses to stdout. Returns once stdin closes or a quit request has
 * been answered (in-flight requests always complete first). */
void
serveStdin(ServeSession &session, ThreadPool &pool)
{
    ResponseWriter out;
    Pending pending;
    std::string line;
    while (!session.quitRequested() && std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        pending.add();
        std::string request = line;
        pool.submit([&session, &out, &pending, request] {
            out.writeLine(session.handleLine(request));
            pending.done();
        });
        // A quit request must stop the reader promptly; drain so its
        // response (and everything before it) is on the wire.
        if (request.find("\"quit\"") != std::string::npos)
            pending.wait();
    }
    pending.wait();
}

/** One accepted socket connection: newline-delimited requests in,
 * responses (order not guaranteed) out. */
void
serveConnection(ServeSession &session, ThreadPool &pool, int fd)
{
    auto write_mutex = std::make_shared<std::mutex>();
    auto respond = [fd, write_mutex](const std::string &response) {
        std::string line = response + "\n";
        std::lock_guard<std::mutex> lock(*write_mutex);
        size_t off = 0;
        while (off < line.size()) {
            ssize_t n =
                ::write(fd, line.data() + off, line.size() - off);
            if (n <= 0)
                break; // Peer gone; drop the rest.
            off += static_cast<size_t>(n);
        }
    };

    Pending pending;
    std::string buffer;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0)
            break;
        buffer.append(chunk, static_cast<size_t>(n));
        size_t start = 0;
        for (size_t nl = buffer.find('\n', start);
             nl != std::string::npos; nl = buffer.find('\n', start)) {
            std::string request = buffer.substr(start, nl - start);
            start = nl + 1;
            if (request.empty())
                continue;
            pending.add();
            pool.submit([&session, &pending, respond, request] {
                respond(session.handleLine(request));
                pending.done();
            });
        }
        buffer.erase(0, start);
        if (session.quitRequested())
            break;
    }
    pending.wait();
    ::close(fd);
}

int
serveSocket(ServeSession &session, ThreadPool &pool,
            const std::string &path)
{
    int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        std::perror("socket");
        return 1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "socket path too long: %s\n", path.c_str());
        ::close(listener);
        return 1;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(path.c_str());
    if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listener, 16) != 0) {
        std::perror("bind/listen");
        ::close(listener);
        return 1;
    }
    std::fprintf(stderr, "scalehls-serve: listening on %s\n",
                 path.c_str());

    std::vector<std::thread> connections;
    while (!session.quitRequested()) {
        int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0)
            break;
        connections.emplace_back([&session, &pool, fd] {
            serveConnection(session, pool, fd);
        });
        if (session.quitRequested())
            break;
    }
    for (auto &thread : connections)
        thread.join();
    ::close(listener);
    ::unlink(path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Snapshot paths default to $SCALEHLS_CACHE_DIR (the env hook every
    // tool resolves through ExploreRequest); the flags override them.
    ServeOptions options;
    ExploreRequest env_defaults;
    env_defaults.applyEnvDefaults();
    options.cacheLoadPath = env_defaults.dse.cacheLoadPath;
    options.cacheSavePath = env_defaults.dse.cacheSavePath;
    std::string socket_path;
    unsigned dispatch = 2;

    auto value_of = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--socket") {
            socket_path = value_of(i);
        } else if (arg == "--dispatch") {
            dispatch = static_cast<unsigned>(std::atoi(value_of(i)));
        } else if (arg == "--threads") {
            options.defaultThreads =
                static_cast<unsigned>(std::atoi(value_of(i)));
        } else if (arg == "--cache-load") {
            options.cacheLoadPath = value_of(i);
        } else if (arg == "--cache-save") {
            options.cacheSavePath = value_of(i);
        } else if (arg == "--snapshot-every") {
            options.snapshotEvery =
                static_cast<size_t>(std::atoll(value_of(i)));
        } else if (arg == "--cache-cap") {
            auto caps = parseEstimateCacheCaps(value_of(i));
            if (!caps) {
                std::fprintf(stderr, "bad --cache-cap spec\n");
                return 2;
            }
            options.tierCaps = *caps;
        } else if (arg == "-h" || arg == "--help") {
            return usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return usage(argv[0]);
        }
    }

    ServeSession session(options);
    ThreadPool pool(std::max(1u, dispatch));

    int code = 0;
    if (socket_path.empty())
        serveStdin(session, pool);
    else
        code = serveSocket(session, pool, socket_path);
    pool.waitIdle();
    // ~ServeSession saves the shutdown snapshot.
    return code;
}
