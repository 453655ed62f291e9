/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Components register named statistics into a Group; Groups nest to form
 * the hierarchy that dump() walks. Statistics are plain accumulators —
 * cheap to bump in hot paths — and formatting happens only at dump time.
 */

#ifndef NETAFFINITY_STATS_STATS_HH
#define NETAFFINITY_STATS_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace na::stats {

class Group;

/** Common interface for all statistics. */
class StatBase
{
  public:
    StatBase(Group *parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Write one or more "name value # desc" lines. */
    virtual void dump(std::ostream &os, const std::string &prefix) const = 0;

    /** Zero the accumulator (used between warmup and measurement). */
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A single counting statistic. */
class Scalar : public StatBase
{
  public:
    Scalar(Group *parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc))
    {
    }

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    void set(double v) { _value = v; }

    double value() const { return _value; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override { _value = 0; }

  private:
    double _value = 0;
};

/** A fixed-size vector of named counters (e.g. per functional bin). */
class Vector : public StatBase
{
  public:
    Vector(Group *parent, std::string name, std::string desc,
           std::vector<std::string> bucket_names);

    double &operator[](std::size_t i) { return values.at(i); }
    double operator[](std::size_t i) const { return values.at(i); }

    std::size_t size() const { return values.size(); }
    double total() const;

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override;

  private:
    std::vector<std::string> bucketNames;
    std::vector<double> values;
};

/**
 * A node in the statistics hierarchy. Owns neither its children nor its
 * statistics — both are members of the objects that declared them; the
 * Group only holds pointers for dump()/reset() walks.
 */
class Group
{
  public:
    Group(Group *parent, std::string name);
    virtual ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &groupName() const { return _name; }

    /** Register a statistic (called by StatBase's constructor). */
    void addStat(StatBase *stat);

    /** Register a child group. */
    void addChild(Group *child);

    /** Remove a child group (called from child destructor). */
    void removeChild(Group *child);

    /** Dump this group and all children, prefixing hierarchical names. */
    void dumpStats(std::ostream &os, const std::string &prefix = "") const;

    /** Reset this group and all children. */
    void resetStats();

  private:
    Group *parent;
    std::string _name;
    std::vector<StatBase *> statList;
    std::vector<Group *> children;
};

} // namespace na::stats

#endif // NETAFFINITY_STATS_STATS_HH
