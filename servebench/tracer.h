// Span recorder for the traced run. Each span covers one call the
// benchmark makes into a layer's public function; spans are named
// "layer:function", kept in memory and written out when the run ends.

#ifndef SERVEBENCH_TRACER_H
#define SERVEBENCH_TRACER_H

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace servebench {

class Tracer
{
  public:
    struct Span
    {
        const char *name = ""; ///< "layer:function", a string literal
        double start_us = 0.0;
        double end_us = 0.0;
        int parent = -1;    ///< index of the enclosing span, -1 = root
        long request = -1;  ///< request index, -1 = not per-request
    };

    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    int
    begin(const char *name, int parent, long request)
    {
        spans_.push_back({name, nowUs(), 0.0, parent, request});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    end(int span)
    {
        spans_[static_cast<size_t>(span)].end_us = nowUs();
    }

    /**
     * Self time per layer in ms: each span's duration minus the part
     * its child spans cover, summed by the layer before ':'.
     */
    std::map<std::string, double>
    selfMsByLayer() const
    {
        std::vector<double> child_us(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child_us[static_cast<size_t>(s.parent)] +=
                    s.end_us - s.start_us;
        }
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const std::string name = spans_[i].name;
            const double self =
                spans_[i].end_us - spans_[i].start_us - child_us[i];
            out[name.substr(0, name.find(':'))] += self / 1000.0;
        }
        return out;
    }

    /** Writes every span as JSON; false when the file cannot be written. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"spans\": [\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"name\": \"%s\", \"start_us\": %.3f, "
                         "\"end_us\": %.3f, \"parent\": %d, "
                         "\"request\": %ld}%s\n",
                         s.name, s.start_us, s.end_us, s.parent, s.request,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** RAII span; a null tracer records nothing (the untraced run). */
class Scope
{
  public:
    Scope(Tracer *t, const char *name, int parent = -1, long request = -1)
        : t_(t), id_(t != nullptr ? t->begin(name, parent, request) : -1)
    {
    }
    ~Scope()
    {
        if (t_ != nullptr)
            t_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    Tracer *t_;
    int id_;
};

} // namespace servebench

#endif // SERVEBENCH_TRACER_H
