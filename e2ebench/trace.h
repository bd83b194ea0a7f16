/**
 * @file
 * In-memory span recorder for the end-to-end benchmark harness.
 *
 * Spans are opened by the harness itself around each call into a
 * library layer (the library is not instrumented). Each span carries a
 * name, start and end times in nanoseconds since the tracer epoch, the
 * id of its parent span and the index of the thread that ran it. The
 * parent defaults to the innermost span open on the calling thread; work
 * handed to a thread pool passes its parent explicitly. Spans stay in
 * memory until the harness writes them out when the run ends. A
 * disabled tracer records nothing and costs one branch per span.
 */

#ifndef E2EBENCH_TRACE_H
#define E2EBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace e2ebench {

struct SpanRecord
{
    int64_t id = 0;
    int64_t parent = -1; ///< -1 = root.
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int thread = 0;
};

class Tracer
{
  public:
    static Tracer &
    get()
    {
        static Tracer tracer;
        return tracer;
    }

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Sleep @p ms inside every span named @p name (the attribution
     * self-test injects a known delay into exactly one layer). */
    void
    setDelay(const std::string &name, int ms)
    {
        delay_name_ = name;
        delay_ms_ = ms;
    }

    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    int64_t
    open(const std::string &name, int64_t parent, bool explicit_parent)
    {
        int64_t id = next_id_.fetch_add(1);
        auto &stack = threadStack();
        if (!explicit_parent)
            parent = stack.empty() ? -1 : stack.back();
        stack.push_back(id);
        SpanRecord record;
        record.id = id;
        record.parent = parent;
        record.name = name;
        record.thread = threadIndex();
        record.startNs = nowNs();
        std::lock_guard<std::mutex> lock(mutex_);
        open_[id] = std::move(record);
        return id;
    }

    void
    close(int64_t id)
    {
        int64_t end = nowNs();
        auto &stack = threadStack();
        if (!stack.empty() && stack.back() == id)
            stack.pop_back();
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = open_.find(id);
        if (it == open_.end())
            return;
        it->second.endNs = end;
        spans_.push_back(std::move(it->second));
        open_.erase(it);
    }

    /** The id of the innermost span open on this thread (-1 = none). */
    int64_t
    current()
    {
        auto &stack = threadStack();
        return stack.empty() ? -1 : stack.back();
    }

    void
    maybeDelay(const std::string &name) const
    {
        if (delay_ms_ > 0 && name == delay_name_)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay_ms_));
    }

    std::vector<SpanRecord>
    take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<SpanRecord> out;
        out.swap(spans_);
        return out;
    }

  private:
    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    static std::vector<int64_t> &
    threadStack()
    {
        thread_local std::vector<int64_t> stack;
        return stack;
    }

    int
    threadIndex()
    {
        thread_local int index = next_thread_.fetch_add(1);
        return index;
    }

    std::chrono::steady_clock::time_point epoch_;
    bool enabled_ = false;
    std::string delay_name_;
    int delay_ms_ = 0;
    std::atomic<int64_t> next_id_{0};
    std::atomic<int> next_thread_{0};
    std::mutex mutex_;
    std::map<int64_t, SpanRecord> open_;
    std::vector<SpanRecord> spans_;
};

/** RAII span; a no-op while the tracer is disabled. The synthetic delay
 * (if any) runs inside the span, so it lands in this span's self time. */
class Span
{
  public:
    explicit Span(const std::string &name) : Span(name, -1, false) {}
    Span(const std::string &name, int64_t parent) : Span(name, parent, true)
    {}
    ~Span()
    {
        if (id_ >= 0)
            Tracer::get().close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int64_t id() const { return id_; }

  private:
    Span(const std::string &name, int64_t parent, bool explicit_parent)
    {
        Tracer &tracer = Tracer::get();
        if (!tracer.enabled())
            return;
        id_ = tracer.open(name, parent, explicit_parent);
        tracer.maybeDelay(name);
    }

    int64_t id_ = -1;
};

} // namespace e2ebench

#endif // E2EBENCH_TRACE_H
