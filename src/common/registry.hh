/**
 * @file
 * One string-keyed factory registry for every experiment axis.
 *
 * Systems, workloads, scheduling, routing and eviction policies are
 * each a Registry<Product, Args...>: entries carry an id
 * ("duplex-pe"), a display name for tables ("Duplex+PE"), a one-line
 * summary and a factory building a Product from Args. Each module
 * aliases its registry, defines instance() with its stock entries
 * loaded, and adds a new entry with one add() call — no enum edits,
 * no new entry points.
 *
 * ids() is lexicographically sorted, NOT registration order: sweep
 * and bench tables built from it stay byte-stable across standard
 * libraries (the g++/clang++ CI matrix diffs them).
 */

#ifndef DUPLEX_COMMON_REGISTRY_HH
#define DUPLEX_COMMON_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace duplex
{

template <typename Product, typename... Args>
class Registry
{
  public:
    using Factory = std::function<std::unique_ptr<Product>(Args...)>;

    /**
     * The process-wide registry with the module's stock entries
     * loaded. Each module specialises this in its own .cc file and
     * declares the specialisation in its header.
     */
    static Registry &instance();

    /** @param noun what an entry is, for error messages ("system"). */
    explicit Registry(std::string noun) : noun_(std::move(noun)) {}

    /** Register an entry; a duplicate id or null factory is fatal. */
    void add(const std::string &id, const std::string &display,
             const std::string &summary, Factory factory)
    {
        fatalIf(contains(id),
                "duplicate " + noun_ + " id '" + id + "'");
        fatalIf(!factory, "null factory for " + noun_ + " '" + id + "'");
        entries_.emplace(id,
                         Entry{display, summary, std::move(factory)});
    }

    /** Register an entry whose display name is its id. */
    void add(const std::string &id, const std::string &summary,
             Factory factory)
    {
        add(id, id, summary, std::move(factory));
    }

    /** True when @p id is registered. */
    bool contains(const std::string &id) const
    {
        return entries_.count(id) != 0;
    }

    /** Build a fresh product; fatal on an unknown id. */
    std::unique_ptr<Product> make(const std::string &id,
                                  Args... args) const
    {
        return find(id).factory(std::forward<Args>(args)...);
    }

    /** Registered ids, lexicographically sorted. */
    std::vector<std::string> ids() const
    {
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const auto &kv : entries_)
            out.push_back(kv.first);
        return out;
    }

    /** Display name for tables ("Duplex+PE"). */
    const std::string &displayName(const std::string &id) const
    {
        return find(id).display;
    }

    /** One-line summary for --list-* style output. */
    const std::string &summary(const std::string &id) const
    {
        return find(id).summary;
    }

  private:
    struct Entry
    {
        std::string display;
        std::string summary;
        Factory factory;
    };

    std::string noun_;
    std::map<std::string, Entry> entries_;

    const Entry &find(const std::string &id) const
    {
        const auto it = entries_.find(id);
        if (it != entries_.end())
            return it->second;
        std::string known;
        for (const auto &kv : entries_)
            known += (known.empty() ? "" : ", ") + kv.first;
        fatal("unknown " + noun_ + " '" + id + "' (known: " + known +
              ")");
    }
};

} // namespace duplex

#endif // DUPLEX_COMMON_REGISTRY_HH
