#include "src/stats/stats.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "src/sim/logging.hh"

namespace na::stats {

StatBase::StatBase(Group *parent, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    if (parent)
        parent->addStat(this);
}

namespace {

void
emitLine(std::ostream &os, const std::string &prefix,
         const std::string &name, double value, const std::string &desc)
{
    std::ostringstream left;
    left << prefix << name;
    os << std::left << std::setw(46) << left.str() << ' '
       << std::right << std::setw(16) << std::setprecision(6) << value
       << "  # " << desc << '\n';
}

} // namespace

void
Scalar::dump(std::ostream &os, const std::string &prefix) const
{
    emitLine(os, prefix, name(), _value, desc());
}

Vector::Vector(Group *parent, std::string name, std::string desc,
               std::vector<std::string> bucket_names)
    : StatBase(parent, std::move(name), std::move(desc)),
      bucketNames(std::move(bucket_names)),
      values(bucketNames.size(), 0.0)
{
}

double
Vector::total() const
{
    double t = 0;
    for (double v : values)
        t += v;
    return t;
}

void
Vector::dump(std::ostream &os, const std::string &prefix) const
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        emitLine(os, prefix, name() + "::" + bucketNames[i], values[i],
                 desc());
    }
    emitLine(os, prefix, name() + "::total", total(), desc());
}

void
Vector::reset()
{
    std::fill(values.begin(), values.end(), 0.0);
}

Group::Group(Group *parent_group, std::string name)
    : parent(parent_group), _name(std::move(name))
{
    if (parent)
        parent->addChild(this);
}

Group::~Group()
{
    if (parent)
        parent->removeChild(this);
}

void
Group::addStat(StatBase *stat)
{
    statList.push_back(stat);
}

void
Group::addChild(Group *child)
{
    children.push_back(child);
}

void
Group::removeChild(Group *child)
{
    children.erase(std::remove(children.begin(), children.end(), child),
                   children.end());
}

void
Group::dumpStats(std::ostream &os, const std::string &prefix) const
{
    const std::string here =
        _name.empty() ? prefix : prefix + _name + ".";
    for (const StatBase *stat : statList)
        stat->dump(os, here);
    for (const Group *child : children)
        child->dumpStats(os, here);
}

void
Group::resetStats()
{
    for (StatBase *stat : statList)
        stat->reset();
    for (Group *child : children)
        child->resetStats();
}

} // namespace na::stats
